#!/usr/bin/env bash
# Multi-node smoke: two rmserve nodes behind a consistent-hash router
# (rmserve -route), the CI-sized proof that the routed deployment works
# over real sockets. A strict soak drives the full wire path through the
# router — per-device ops land on the ring owner, /metrics reconciles
# against the client's own counts — then the merged /v1/stats snapshot
# is checked field by field against the plain sum of the two nodes'
# snapshots, and finally one node is killed to check that the router
# degrades into a clean 502/unavailable taxonomy error rather than a
# hang or a silently partial sum.
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

start_rmserve "$workdir/node0.log" -listen 127.0.0.1:0 -devices "$DEVICES"
node0_addr=$ADDR
start_rmserve "$workdir/node1.log" -listen 127.0.0.1:0 -devices "$DEVICES"
node1_addr=$ADDR
node1_pid=$SERVER_PID

# Seed 42 spreads devices 0..3 over both owners (pinned by the router's
# cross-topology equivalence test), so both nodes see traffic.
start_rmserve "$workdir/router.log" -route -listen 127.0.0.1:0 \
	-peers "$node0_addr,$node1_addr" -ring-seed 42
router_addr=$ADDR

echo "multi-node-smoke: nodes at $node0_addr $node1_addr, router at $router_addr"
echo "multi-node-smoke: ${RPS} ops/s for ${DURATION} through the router"

"$workdir/rmsoak" -addr "http://$router_addr" -rps "$RPS" -duration "$DURATION" \
	-devices "$DEVICES" -strict

# The router's merged fleet snapshot must equal the per-node sum — for
# every lifecycle counter, not just the submitted total the strict soak
# already reconciled.
merged=$(curl -sf "http://$router_addr/v1/stats")
n0=$(curl -sf "http://$node0_addr/v1/stats")
n1=$(curl -sf "http://$node1_addr/v1/stats")
for field in submitted accepted rejected completed cancelled activations; do
	m=$(jq -r ".${field} // 0" <<<"$merged")
	a=$(jq -r ".${field} // 0" <<<"$n0")
	b=$(jq -r ".${field} // 0" <<<"$n1")
	if [[ $m -ne $((a + b)) ]]; then
		echo "merged $field=$m != node sum $a+$b" >&2
		exit 1
	fi
done
for node in "$n0" "$n1"; do
	if [[ $(jq -r '.submitted' <<<"$node") -eq 0 ]]; then
		echo "a node received no traffic — ring did not spread the devices" >&2
		exit 1
	fi
done
echo "multi-node-smoke: merged stats reconcile with per-node sums"

# Kill one node: the merged query must now refuse with the taxonomy's
# unavailable error on a 502 — never a partial sum.
kill -9 "$node1_pid"
wait "$node1_pid" 2>/dev/null || true
status=$(curl -s -o "$workdir/degraded.json" -w '%{http_code}' "http://$router_addr/v1/stats")
if [[ $status != 502 ]]; then
	echo "degraded fleet stats returned HTTP $status, want 502" >&2
	cat "$workdir/degraded.json" >&2
	exit 1
fi
code=$(jq -r '.error.code' <"$workdir/degraded.json")
if [[ $code != unavailable ]]; then
	echo "degraded fleet stats carried code $code, want unavailable" >&2
	cat "$workdir/degraded.json" >&2
	exit 1
fi
echo "multi-node-smoke: dead peer surfaces as 502/unavailable"
echo "multi-node-smoke: ok"
