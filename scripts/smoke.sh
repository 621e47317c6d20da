#!/usr/bin/env bash
# smoke.sh — end-to-end smoke test of every cmd/ binary.
#
# Builds all binaries, checks that each one prints usage and exits 0 on
# -h, runs a tiny real invocation of each batch tool (including a span
# trace captured with -trace and validated with tracecheck), and drives
# the rampserve service over HTTP: healthz, an evaluate request, metrics
# in both JSON and Prometheus form, request-ID echo, a T_qual outside
# the model's domain (400, no poisoned cache key), then SIGTERM and a
# clean-drain exit check. Fast by construction (short runs, coarse
# grids); CI runs it on every push.
set -eu
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
logdir=$(mktemp -d)
server_pid=""
cleanup() {
	if [ -n "${server_pid}" ] && kill -0 "${server_pid}" 2>/dev/null; then
		kill -KILL "${server_pid}" 2>/dev/null || true
	fi
	rm -rf "${bindir}" "${logdir}"
}
trap cleanup EXIT

step() { echo "==> $*"; }

binaries="rampsim ramptables drmexplore drmdtm scaling manycore rampvet rampserve tracecheck fleetmc rampload"

step "build all binaries"
for b in ${binaries}; do
	go build -o "${bindir}/${b}" "./cmd/${b}"
done

step "-h prints usage and exits 0"
for b in ${binaries}; do
	# flag.Parse exits 2 on -h by default unless the command overrides
	# Usage; accept 0 or 2 but require usage text on stderr.
	if "${bindir}/${b}" -h >"${logdir}/${b}.h" 2>&1; then
		:
	elif [ $? -ne 2 ]; then
		echo "FAIL: ${b} -h exited with unexpected status" >&2
		exit 1
	fi
	grep -qi "usage" "${logdir}/${b}.h" || {
		echo "FAIL: ${b} -h printed no usage text" >&2
		cat "${logdir}/${b}.h" >&2
		exit 1
	}
done

step "rampsim: single short evaluation with span trace and stats"
"${bindir}/rampsim" -app twolf -warmup 20000 -epochs 3 -epoch-instrs 50000 \
	-trace "${logdir}/rampsim.trace.json" -stats \
	>"${logdir}/rampsim.out" 2>"${logdir}/rampsim.err"
grep -q "FIT" "${logdir}/rampsim.out"
grep -q "exp_epochs_simulated_total" "${logdir}/rampsim.err"

step "tracecheck: captured trace is valid Chrome trace_event JSON"
"${bindir}/tracecheck" "${logdir}/rampsim.trace.json"

step "ramptables: Table 1 (configuration only, no simulation)"
"${bindir}/ramptables" -quick -table 1 >"${logdir}/ramptables.out"
grep -q "Table 1" "${logdir}/ramptables.out"

step "drmexplore: Figure 3, one app, coarse grid"
"${bindir}/drmexplore" -quick -figure 3 -app bzip2 -step 1.25e9 >"${logdir}/drmexplore.out"
grep -q "Figure 3" "${logdir}/drmexplore.out"

step "drmdtm: Figure 4, one app, coarse grid"
"${bindir}/drmdtm" -quick -apps twolf -step 1.25e9 >"${logdir}/drmdtm.out"
grep -q "Figure 4" "${logdir}/drmdtm.out"

step "scaling: quick technology-scaling sweep"
"${bindir}/scaling" -quick >"${logdir}/scaling.out"
grep -q "nm" "${logdir}/scaling.out"

step "manycore: quick N=2 policy sweep"
"${bindir}/manycore" -quick -cores 2 -epochs 4 >"${logdir}/manycore.out"
grep -q "single-core DRM baseline" "${logdir}/manycore.out"
grep -q "wearlevel" "${logdir}/manycore.out"

step "fleetmc: quick fleet Monte Carlo (1M chips, two policies)"
"${bindir}/fleetmc" -quick -tquals 400,370 >"${logdir}/fleetmc.out"
grep -q "Fleet Monte Carlo: 1000000 chips" "${logdir}/fleetmc.out"
grep -q "tq370K" "${logdir}/fleetmc.out"

step "rampvet: lint the RAMP core and the manycore scheduler stack"
"${bindir}/rampvet" ./internal/core ./internal/sched ./cmd/manycore

step "rampserve: serve, evaluate over HTTP, drain on SIGTERM"
"${bindir}/rampserve" -addr 127.0.0.1:0 -quick >"${logdir}/rampserve.out" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^rampserve: listening on \([^ ]*\).*/\1/p' "${logdir}/rampserve.out")
	[ -n "${addr}" ] && break
	kill -0 "${server_pid}" 2>/dev/null || {
		echo "FAIL: rampserve died on startup" >&2
		cat "${logdir}/rampserve.out" >&2
		exit 1
	}
	sleep 0.1
done
[ -n "${addr}" ] || { echo "FAIL: rampserve never reported its address" >&2; exit 1; }

curl -sSf "http://${addr}/v1/healthz" | grep -q '"ok"'
curl -sSf -X POST "http://${addr}/v1/evaluate" \
	-d '{"app":"twolf","freq_hz":4.5e9,"tqual_k":370}' >"${logdir}/evaluate.json"
grep -q '"fit"' "${logdir}/evaluate.json"
curl -sSf "http://${addr}/metrics" | grep -q '"requests_total"'
curl -sSf -X POST "http://${addr}/v1/fleet" \
	-d '{"app":"twolf","chips":2000,"tquals_k":[400,370],"spares":1}' >"${logdir}/fleet.json"
grep -q '"return_rate_11y"' "${logdir}/fleet.json"
grep -q '"scenario":"repair"' "${logdir}/fleet.json"

step "rampserve: request-ID echo (inbound honored, generated otherwise)"
curl -sSf -D "${logdir}/rid.h" -o /dev/null \
	-H 'X-Request-ID: smoke-probe-1' "http://${addr}/v1/healthz"
grep -qi '^x-request-id: smoke-probe-1' "${logdir}/rid.h"
curl -sSf -D "${logdir}/rid2.h" -o /dev/null "http://${addr}/v1/healthz"
grep -qi '^x-request-id: ramp-' "${logdir}/rid2.h"

step "rampserve: windowed metrics stream (one NDJSON frame)"
curl -sSf "http://${addr}/v1/metrics/stream?window=100ms&n=1&format=ndjson" \
	>"${logdir}/frame.json"
grep -q '"request_id"' "${logdir}/frame.json"
grep -q '"delta"' "${logdir}/frame.json"

step "rampload: deterministic plan render (no traffic)"
"${bindir}/rampload" -plan -seed 5 -n 1000 >"${logdir}/plan.out"
grep -q 'stream fnv64a' "${logdir}/plan.out"

step "rampserve: /metrics Prometheus text exposition"
curl -sSf "http://${addr}/metrics?format=prom" >"${logdir}/metrics.prom"
grep -q '# TYPE rampserve_requests_total counter' "${logdir}/metrics.prom"
grep -q 'rampserve_requests_total{route="evaluate"} 1' "${logdir}/metrics.prom"
grep -q 'rampserve_latency_us_bucket{route="evaluate",le="+Inf"} 1' "${logdir}/metrics.prom"
curl -sSf -H 'Accept: text/plain' "http://${addr}/metrics" \
	| grep -q '# TYPE rampserve_uptime_seconds gauge'

step "rampserve: T_qual outside the model's domain is a 400 that poisons no cache key"
# A fresh configuration, so the rejected request would be the first to
# reach its cache entry.
status_of() {
	curl -sS -o "$1" -w '%{http_code}' -X POST "http://${addr}/v1/evaluate" -d "$2"
}
code=$(status_of "${logdir}/tqual280.json" '{"app":"twolf","freq_hz":3.5e9,"tqual_k":280}')
[ "${code}" = 400 ] || { echo "FAIL: tqual_k 280 returned ${code}, want 400" >&2; cat "${logdir}/tqual280.json" >&2; exit 1; }
grep -q 'outside the qualification domain' "${logdir}/tqual280.json"
code=$(status_of "${logdir}/tqual370.json" '{"app":"twolf","freq_hz":3.5e9,"tqual_k":370}')
[ "${code}" = 200 ] || { echo "FAIL: tqual_k 370 after a rejected 280 returned ${code}, want 200" >&2; cat "${logdir}/tqual370.json" >&2; exit 1; }
curl -sSf "http://${addr}/metrics" | grep -q '"buckets_le_us"'

kill -TERM "${server_pid}"
status=0
wait "${server_pid}" || status=$?
server_pid=""
if [ "${status}" -ne 0 ]; then
	echo "FAIL: rampserve exited ${status} after SIGTERM" >&2
	cat "${logdir}/rampserve.out" >&2
	exit 1
fi
grep -q "drained, bye" "${logdir}/rampserve.out"

echo "smoke: all good"
