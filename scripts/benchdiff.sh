#!/usr/bin/env bash
# benchdiff.sh — diff two BENCH_*.json perf snapshots (see bench.sh) and
# flag regressions in ns/op, B/op and allocs/op.
#
#   scripts/benchdiff.sh                        # BENCH_<n-1>.json vs BENCH_<n>.json
#   scripts/benchdiff.sh BENCH_ci.json          # highest BENCH_<n>.json vs BENCH_ci.json
#   scripts/benchdiff.sh OLD.json NEW.json      # explicit pair (old first)
#
# Multi-sample (schema 2) snapshots are compared by their medians, and the
# ns/op spread of each side, (max-min)/median, is printed beside the
# change so a shift can be told from noise. Single-sample (schema 1)
# snapshots read as a median with no spread.
#
# A benchmark regresses when a median grows beyond its threshold:
#   ns/op      +15%  (timing is noisy; override with BENCHDIFF_NS_PCT)
#   B/op        +5%  (BENCHDIFF_B_PCT)
#   allocs/op   +1%  (allocation counts are deterministic; BENCHDIFF_ALLOCS_PCT)
# Exit status is 1 if any benchmark regressed. Benchmarks present in only
# one snapshot are listed but never fail the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

highest() { # prints the BENCH_<n>.json with the largest n, skipping "$1"
	local best=-1 f i
	for f in BENCH_*.json; do
		[ -e "${f}" ] || continue
		[ "${f}" = "${1:-}" ] && continue
		i="${f#BENCH_}"
		i="${i%.json}"
		case "${i}" in *[!0-9]*) continue ;; esac
		if [ "${i}" -gt "${best}" ]; then best="${i}"; fi
	done
	[ "${best}" -ge 0 ] && echo "BENCH_${best}.json"
}

old="${1:-}"
new="${2:-}"
if [ -z "${old}" ]; then
	new="$(highest)" || true
	old="$(highest "${new}")" || true
elif [ -z "${new}" ]; then
	new="${old}"
	old="$(highest "${new}")" || true
fi
if [ -z "${old}" ] || [ -z "${new}" ] || [ ! -e "${old}" ] || [ ! -e "${new}" ]; then
	echo "benchdiff: need two snapshots to compare (old='${old:-}' new='${new:-}')" >&2
	exit 2
fi

echo "benchdiff: ${old} -> ${new}"
awk -v ns_pct="${BENCHDIFF_NS_PCT:-15}" -v b_pct="${BENCHDIFF_B_PCT:-5}" \
	-v allocs_pct="${BENCHDIFF_ALLOCS_PCT:-1}" '
	# metric returns the median of key in a benchmark line (a schema-1
	# value is its own median), or -1 when absent; it leaves the spread
	# (max-min)/median in percent in the global spread, -1 if unknown.
	function metric(s, key,    pat, num, med, lo, hi) {
		num = "[0-9.eE+-]+"
		spread = -1
		pat = "\"" key "\":\\{\"median\":" num ",\"min\":" num ",\"max\":" num "\\}"
		if (match(s, pat)) {
			split(substr(s, RSTART, RLENGTH), f, /[:,}]/)
			med = f[3] + 0
			lo = f[5] + 0
			hi = f[7] + 0
			if (med > 0) spread = (hi - lo) * 100 / med
			return med
		}
		pat = "\"" key "\":" num
		if (match(s, pat)) return substr(s, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
		return -1
	}
	function fmtspread(p) {
		return p < 0 ? "     -" : sprintf("%5.1f%%", p)
	}
	function fmt(old, new,    pct) {
		if (old < 0 || new < 0) return "        -"
		if (old == 0) return new == 0 ? "       0%" : "     new>0"
		pct = (new - old) * 100 / old
		return sprintf("%+8.1f%%", pct)
	}
	function regressed(old, new, limit) {
		if (old <= 0 || new < 0) return 0
		return (new - old) * 100 / old > limit
	}
	/"name":/ {
		if (!match($0, /"name":"[^"]*"/)) next
		name = substr($0, RSTART + 8, RLENGTH - 9)
		if (FNR == NR) {
			ons[name] = metric($0, "ns/op")
			osp[name] = spread
			ob[name] = metric($0, "B/op")
			oa[name] = metric($0, "allocs/op")
			seen[name] = 1
			next
		}
		order[n++] = name
		nns[name] = metric($0, "ns/op")
		nsp[name] = spread
		nb[name] = metric($0, "B/op")
		na[name] = metric($0, "allocs/op")
	}
	END {
		printf "%-36s %9s %15s %9s %9s\n", "benchmark", "ns/op", "spread old/new", "B/op", "allocs/op"
		bad = 0
		for (i = 0; i < n; i++) {
			name = order[i]
			if (!(name in seen)) {
				printf "%-36s %9s %15s %9s %9s  (new benchmark)\n", name, "-", "-", "-", "-"
				continue
			}
			mark = ""
			if (regressed(ons[name], nns[name], ns_pct) ||
				regressed(ob[name], nb[name], b_pct) ||
				regressed(oa[name], na[name], allocs_pct)) {
				mark = "  REGRESSED"
				bad++
			}
			printf "%-36s %9s %15s %9s %9s%s\n", name,
				fmt(ons[name], nns[name]), fmtspread(osp[name]) "/" fmtspread(nsp[name]),
				fmt(ob[name], nb[name]),
				fmt(oa[name], na[name]), mark
			delete seen[name]
		}
		for (name in seen) printf "%-36s (dropped from new snapshot)\n", name
		if (bad) {
			printf "benchdiff: %d benchmark(s) regressed beyond thresholds (ns/op +%s%%, B/op +%s%%, allocs/op +%s%%)\n",
				bad, ns_pct, b_pct, allocs_pct
			exit 1
		}
	}' "${old}" "${new}"
