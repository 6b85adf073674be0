# Helpers shared by the daemon scripts (smoke-soak.sh, crash-recovery.sh,
# multi-node-smoke.sh). Source it from the repository root.

# setup_daemons makes $workdir, builds rmserve and rmsoak into it, and
# arranges for every daemon start_rmserve boots to be stopped (SIGINT)
# and $workdir removed when the script exits.
setup_daemons() {
	workdir=$(mktemp -d)
	PIDS=()
	trap stop_daemons EXIT
	go build -o "$workdir/rmserve" ./cmd/rmserve
	go build -o "$workdir/rmsoak" ./cmd/rmsoak
}

stop_daemons() {
	for pid in "${PIDS[@]:-}"; do
		if [[ -n $pid ]] && kill -0 "$pid" 2>/dev/null; then
			kill -INT "$pid" 2>/dev/null || true
			wait "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$workdir"
}

# start_rmserve LOG ARGS... boots "$workdir/rmserve ARGS..." in the
# background with its output in LOG and waits for its "listening:"
# line. It sets SERVER_PID to the process id and ADDR to the resolved
# host:port. A daemon that dies first, or prints no address within
# 10s, fails the script with its log on stderr.
start_rmserve() {
	local log=$1
	shift
	"$workdir/rmserve" "$@" >"$log" 2>&1 &
	SERVER_PID=$!
	PIDS+=("$SERVER_PID")
	ADDR=""
	for _ in $(seq 1 100); do
		ADDR=$(sed -n 's/^listening: \([^ ]*\).*/\1/p' "$log")
		[[ -n $ADDR ]] && return 0
		if ! kill -0 "$SERVER_PID" 2>/dev/null; then
			echo "rmserve died before listening ($log):" >&2
			cat "$log" >&2
			exit 1
		fi
		sleep 0.1
	done
	echo "rmserve never printed its address ($log)" >&2
	cat "$log" >&2
	exit 1
}
