#!/usr/bin/env bash
# bench.sh — run the benchmark suite and snapshot the numbers as a
# BENCH_<n>.json entry in the repo's perf trajectory (repo root).
#
#   scripts/bench.sh              # auto-numbered: one past the highest BENCH_<n>.json
#   scripts/bench.sh 2            # explicit index -> BENCH_2.json
#   scripts/bench.sh ci           # CI snapshot   -> BENCH_ci.json (not part of the trajectory)
#   BENCH_PATTERN='Thermal|Figure2' scripts/bench.sh   # restrict to a subset
#
# Each benchmark runs 5 times. The snapshot records go/OS/CPU metadata,
# the commit (suffixed -dirty when the tree has uncommitted changes), and
# for every benchmark the per-run iteration counts and, for each metric
# (ns/op, B/op, allocs/op, plus any b.ReportMetric series), the median,
# min and max over the runs, so successive PRs can diff perf without
# re-running old commits and can tell a shift from noise.
set -euo pipefail
cd "$(dirname "$0")/.."

index="${1:-}"
if [ -z "${index}" ]; then
	index=0
	for f in BENCH_*.json; do
		[ -e "${f}" ] || continue
		i="${f#BENCH_}"
		i="${i%.json}"
		case "${i}" in *[!0-9]*) continue ;; esac
		if [ "${i}" -ge "${index}" ]; then index=$((i + 1)); fi
	done
fi
out="BENCH_${index}.json"
pattern="${BENCH_PATTERN:-.}"

raw="$(mktemp)"
trap 'rm -f "${raw}"' EXIT
go test -run '^$' -bench "${pattern}" -benchmem -count 5 -timeout 0 . | tee "${raw}"

{
	printf '{\n'
	printf '  "schema": 2,\n'
	printf '  "index": "%s",\n' "${index}"
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
	printf '  "commit": "%s",\n' "$(git describe --always --dirty 2>/dev/null || echo unknown)"
	printf '  "count": 5,\n'
	awk '
		# sorted copies v[1..n] into s[1..n] in ascending order.
		function sorted(v, n, s,    i, j, x) {
			for (i = 1; i <= n; i++) {
				x = v[i]
				for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
				s[j + 1] = x
			}
		}
		/^goos:/ { goos = $2 }
		/^goarch:/ { goarch = $2 }
		/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
		/^Benchmark/ && NF >= 4 {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in runs)) order[nb++] = name
			r = ++runs[name]
			iters[name] = (r > 1 ? iters[name] "," : "") $2
			for (i = 3; i + 1 <= NF; i += 2) {
				unit = $(i + 1)
				if (!((name, unit) in nval)) units[name] = units[name] SUBSEP unit
				val[name, unit, ++nval[name, unit]] = $i + 0
			}
		}
		END {
			printf "  \"goos\": \"%s\",\n", goos
			printf "  \"goarch\": \"%s\",\n", goarch
			printf "  \"cpu\": \"%s\",\n", cpu
			printf "  \"benchmarks\": [\n"
			for (b = 0; b < nb; b++) {
				name = order[b]
				line = sprintf("    {\"name\":\"%s\",\"iterations\":[%s],\"metrics\":{", name, iters[name])
				nu = split(substr(units[name], 2), us, SUBSEP)
				for (u = 1; u <= nu; u++) {
					n = nval[name, us[u]]
					delete v
					delete s
					for (i = 1; i <= n; i++) v[i] = val[name, us[u], i]
					sorted(v, n, s)
					med = (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
					line = line sprintf("%s\"%s\":{\"median\":%.10g,\"min\":%.10g,\"max\":%.10g}",
						(u > 1 ? "," : ""), us[u], med, s[1], s[n])
				}
				printf "%s}}%s\n", line, (b + 1 < nb ? "," : "")
			}
			printf "  ]\n"
		}' "${raw}"
	printf '}\n'
} >"${out}"
echo "wrote ${out}"
