#!/usr/bin/env bash
# Kill -9 crash-recovery check over the real wire path, in two phases.
#
# Phase 1 (mid-traffic crash): run rmserve with a durable data dir,
# soak it, SIGKILL it mid-soak — no flush, no shutdown hook — restart
# on the same dir and require a recovery report and recovered
# submissions. This proves torn, unflushed state recovers at all.
#
# Phase 2 (exact equivalence): on a fresh dir, run a strict rmsoak to
# completion, quiesce until the WAL holds every emitted event, capture
# /v1/stats and the flightlog's WAL positions, SIGKILL, restart, and
# require the recovered stats to be byte-identical and the recovered
# WAL positions to match the flightlog's last pre-kill snapshot. (The
# two phases use separate dirs because each rmsoak run restarts its
# virtual clocks at zero: a second run against recovered devices would
# race their already-advanced clocks.)
#
# The deterministic stats subset is the lifecycle ledger + energy
# (devices, submitted, accepted, rejected, completed, deadline_misses,
# cancelled, energy). Cache counters, activations and scheduling time
# are excluded: replay re-executes decisions but not the incidental
# solver work, so those are documented to diverge.
#
# Environment knobs:
#   CRASH_DURATION  per-phase soak length (default 2s)
#   CRASH_RPS       offered aggregate rate (default 150)
#   CRASH_DEVICES   fleet size (default 4)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

DURATION=${CRASH_DURATION:-2s}
RPS=${CRASH_RPS:-150}
DEVICES=${CRASH_DEVICES:-4}
SUBSET='{devices, submitted, accepted, rejected, completed, deadline_misses, cancelled, energy}'

setup_daemons

# start_daemon <data dir> <log file>: launches a durable rmserve on a
# free port and sets $SERVER_PID and $ADDR.
start_daemon() {
	start_rmserve "$2" -listen 127.0.0.1:0 -devices "$DEVICES" \
		-data-dir "$1" -fsync always
}

# hard_kill: SIGKILL the daemon — no flush, no shutdown hook.
hard_kill() {
	kill -9 "$SERVER_PID"
	wait "$SERVER_PID" 2>/dev/null || true
}

# quiesce: poll /metrics until every device's WAL position matches its
# emitted event sequence (the writer is asynchronous; fsync=always then
# guarantees everything matched is on disk).
quiesce() {
	for _ in $(seq 1 100); do
		if curl -fsS "http://$ADDR/metrics" | awk '
			/^adaptrm_device_event_seq\{/ { split($1, a, "\""); dev[a[2]] = $2 }
			/^adaptrm_wal_last_seq\{/     { split($1, a, "\""); wal[a[2]] = $2 }
			END {
				for (d in dev) if (wal[d] != dev[d]) exit 1
				exit 0
			}
		'; then
			return 0
		fi
		sleep 0.1
	done
	echo "WAL never caught up with the event stream" >&2
	curl -fsS "http://$ADDR/metrics" | grep -E 'adaptrm_(wal_last|device_event)_seq' >&2 || true
	exit 1
}

stats() {
	curl -fsS "http://$ADDR/v1/stats" | jq -cS "$SUBSET"
}

# wal_positions: per-device WAL sequence as daemon-agnostic JSON —
# from the flightlog dump's WAL aux before a kill, from /metrics after
# a restart.
flightlog_wal_positions() {
	curl -fsS "http://$ADDR/debug/flightlog" |
		jq -c '[.aux.wal.devices[] | {device, seq: .last_seq}]'
}
metrics_wal_positions() {
	curl -fsS "http://$ADDR/metrics" | awk '
		/^adaptrm_wal_last_seq\{/ { split($1, a, "\""); print a[2], $2 }
	' | sort -n | jq -Rcs '[split("\n")[] | select(length > 0) | split(" ") |
		{device: (.[0] | tonumber), seq: (.[1] | tonumber)}]'
}

# --- Phase 1: kill -9 mid-soak, restart, require a recovery report ----
start_daemon "$workdir/data1" "$workdir/rmserve-a.log"
echo "crash-recovery: daemon A at $ADDR (data dir $workdir/data1)"
"$workdir/rmsoak" -addr "http://$ADDR" -rps "$RPS" -duration "$DURATION" \
	-devices "$DEVICES" >"$workdir/rmsoak-a.log" 2>&1 &
soak_pid=$!
sleep 1
hard_kill
echo "crash-recovery: daemon A killed -9 mid-soak"
wait "$soak_pid" 2>/dev/null || true # transport errors expected

start_daemon "$workdir/data1" "$workdir/rmserve-b.log"
recovery=$(sed -n 's/^wal: *//p' "$workdir/rmserve-b.log")
if [[ -z $recovery ]]; then
	echo "daemon B printed no recovery report:" >&2
	cat "$workdir/rmserve-b.log" >&2
	exit 1
fi
echo "crash-recovery: daemon B recovered: $recovery"
submitted=$(curl -fsS "http://$ADDR/v1/stats" | jq .submitted)
if [[ $submitted -le 0 ]]; then
	echo "daemon B recovered no submissions (submitted=$submitted)" >&2
	exit 1
fi
hard_kill

# --- Phase 2: strict soak, quiesced kill -9, exact equivalence --------
start_daemon "$workdir/data2" "$workdir/rmserve-c.log"
echo "crash-recovery: daemon C at $ADDR (data dir $workdir/data2)"
"$workdir/rmsoak" -addr "http://$ADDR" -rps "$RPS" -duration "$DURATION" \
	-devices "$DEVICES" -strict >"$workdir/rmsoak-c.log" 2>&1 ||
	{
		echo "strict rmsoak failed:" >&2
		cat "$workdir/rmsoak-c.log" >&2
		exit 1
	}
quiesce
before_stats=$(stats)
before_wal=$(flightlog_wal_positions)
hard_kill
echo "crash-recovery: daemon C killed -9 after quiesce"

start_daemon "$workdir/data2" "$workdir/rmserve-d.log"
after_stats=$(stats)
after_wal=$(metrics_wal_positions)
if [[ $before_stats != "$after_stats" ]]; then
	echo "recovered stats diverge from pre-kill stats:" >&2
	echo " before: $before_stats" >&2
	echo " after:  $after_stats" >&2
	exit 1
fi
if [[ $before_wal != "$after_wal" ]]; then
	echo "recovered WAL positions diverge from pre-kill flightlog:" >&2
	echo " before: $before_wal" >&2
	echo " after:  $after_wal" >&2
	exit 1
fi
echo "crash-recovery: stats identical across kill -9: $after_stats"
echo "crash-recovery: WAL positions identical across kill -9: $after_wal"

kill -INT "$SERVER_PID"
wait "$SERVER_PID" || true
echo "crash-recovery: ok"
