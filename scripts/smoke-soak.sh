#!/usr/bin/env bash
# Socket-level smoke soak: build rmserve and rmsoak, run the daemon on a
# free port, drive a short low-rate soak against it, and fail on any
# transport error or if the server's /metrics counters do not reconcile
# with the client's own counts (rmsoak -strict checks both). This is the
# CI-sized version of the benchmarks/README.md soak recipe: seconds, not
# minutes, but the full wire path — HTTP admission, advances, cancels,
# /metrics scrapes — end to end.
#
# Environment knobs:
#   SOAK_DURATION  soak length (default 2s)
#   SOAK_RPS       offered aggregate rate (default 100)
#   SOAK_DEVICES   fleet size (default 4)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

DURATION=${SOAK_DURATION:-2s}
RPS=${SOAK_RPS:-100}
DEVICES=${SOAK_DEVICES:-4}

setup_daemons

# -listen :0 binds a free port; the daemon prints the resolved address
# on its "listening:" line.
start_rmserve "$workdir/rmserve.log" -listen 127.0.0.1:0 -devices "$DEVICES"
echo "smoke-soak: daemon at $ADDR, ${RPS} ops/s for ${DURATION}"

"$workdir/rmsoak" -addr "http://$ADDR" -rps "$RPS" -duration "$DURATION" \
	-devices "$DEVICES" -strict

kill -INT "$SERVER_PID"
wait "$SERVER_PID" || true

# Second pass: the anytime-refinement configuration. Build a small warm
# shared-cache file offline (replay mode with refinement drains the
# exact searches into the tier at close), then soak strictly against a
# daemon serving from that warm tier with background refinement on —
# the counters must still reconcile exactly with the client's.
"$workdir/rmserve" -devices "$DEVICES" -horizon 60 \
	-cache-shared -cache-warm-out "$workdir/warm.json" \
	-refine -refine-workers 2 >"$workdir/warm-build.log" 2>&1
[[ -s $workdir/warm.json ]] || {
	echo "warm-cache file not produced" >&2
	cat "$workdir/warm-build.log" >&2
	exit 1
}

# The node budget is capped so background searches cannot monopolise
# the small CI container's cores; the soak gates reconciliation, not
# refinement depth.
start_rmserve "$workdir/rmserve-warm.log" -listen 127.0.0.1:0 -devices "$DEVICES" \
	-cache-warm "$workdir/warm.json" -refine -refine-workers 2 \
	-refine-budget 200000
echo "smoke-soak: warm+refine daemon at $ADDR, ${RPS} ops/s for ${DURATION}"

"$workdir/rmsoak" -addr "http://$ADDR" -rps "$RPS" -duration "$DURATION" \
	-devices "$DEVICES" -strict

kill -INT "$SERVER_PID"
wait "$SERVER_PID" || true

# Third pass: the overload stage. The daemon runs the degradation
# controller with a latency threshold any real admission clears, so
# within a few ticks the controller walks to shedding — a deterministic
# stand-in for "offered rate far above sustainable" that does not
# depend on the CI host being slow. The client drives ~5x the base rate
# in bursts; -strict asserts zero transport errors and that the
# server's shed counter reconciles with the client's observed
# overloaded refusals, and -max-p99 bounds the latency of the submits
# that were admitted (shedding must keep the served path fast, not
# collapse it).
OVERLOAD_RPS=$((${RPS} * 5))
start_rmserve "$workdir/rmserve-overload.log" -listen 127.0.0.1:0 -devices "$DEVICES" \
	-control -control-interval 20ms -control-high-latency 1ns
echo "smoke-soak: overload daemon at $ADDR, ${OVERLOAD_RPS} ops/s for ${DURATION}"

"$workdir/rmsoak" -addr "http://$ADDR" -rps "$OVERLOAD_RPS" -duration "$DURATION" \
	-devices "$DEVICES" -burst 4 -strict -max-p99 500ms \
	| tee "$workdir/rmsoak-overload.out"

# The stage must actually have exercised the shed path: the controller
# escalates within a few ticks, so a soak that saw no overloaded
# refusals means the control loop never engaged.
grep -q '^shedding:  server shed' "$workdir/rmsoak-overload.out" || {
	echo "overload stage never shed — controller did not engage" >&2
	cat "$workdir/rmserve-overload.log" >&2
	exit 1
}

kill -INT "$SERVER_PID"
wait "$SERVER_PID" || true
echo "smoke-soak: ok"
