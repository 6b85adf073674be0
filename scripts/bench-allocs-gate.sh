#!/usr/bin/env bash
# Allocation regression gate: run the scheduler hot-path benchmarks with
# -benchmem at a fixed iteration count and fail when any benchmark's
# allocs/op exceeds its ceiling in benchmarks/allocs-baseline.txt.
#
# Unlike ns/op, allocs/op is deterministic for a fixed benchtime and Go
# version — it does not depend on host speed or load — so this gate runs
# in CI on every push, while timings (rmbench/run.sh -compare) stay a
# same-host advisory tool.
#
# Baseline format (benchmarks/allocs-baseline.txt): lines of
#   BenchmarkName <max allocs/op>
# with '#' comments. Names carry no -GOMAXPROCS suffix. To update after
# an intentional change, edit the file (or regenerate: run this script
# and copy the reported values).
#
# Environment knobs:
#   ALLOC_BENCH_PATTERN  benchmarks to run (default: the gated set)
#   ALLOC_BENCH_TIME     -benchtime (default: 100x; keep fixed — the
#                        reported allocs/op is floor(total/N))
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN=${ALLOC_BENCH_PATTERN:-'Fig4SearchTimeMDF|AblationPackEDF|WatchFanout|MetricsRecord|WALAppend|SharedTierLookup|ControlTick|WireCodec'}
TIME=${ALLOC_BENCH_TIME:-100x}
BASELINE=benchmarks/allocs-baseline.txt

if [[ ! -f $BASELINE ]]; then
	echo "$BASELINE missing" >&2
	exit 1
fi

# The gated set spans the root package (scheduler hot path), the fleet
# package (watch fan-out publish path), the metrics package (the HTTP
# instrumentation's per-request recording path), the durable package
# (the WAL frame-encode + segment-write append path), the schedcache
# package (the shared-tier probe on the admission hot path), the
# control package (the degradation controller's per-tick decision and
# per-pickup Limits read) and the httpapi package (the wire codec of the
# hot verbs, run on every HTTP hop).
out=$(go test -run '^$' -bench "$PATTERN" -benchtime "$TIME" -benchmem -timeout 30m . ./internal/fleet ./internal/metrics ./internal/durable ./internal/schedcache ./internal/control ./internal/httpapi)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v baseline="$BASELINE" '
	BEGIN {
		while ((getline line < baseline) > 0) {
			sub(/#.*/, "", line)
			n = split(line, f, /[ \t]+/)
			if (n >= 2 && f[1] != "") max[f[1]] = f[2]
		}
		close(baseline)
	}
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		allocs = ""
		for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
		if (allocs == "") next
		seen[name] = 1
		if (!(name in max)) { printf "ungated:   %s (%s allocs/op) — add it to %s\n", name, allocs, baseline; bad = 1; next }
		if (allocs + 0 > max[name] + 0) { printf "REGRESSED: %s %s allocs/op > ceiling %s\n", name, allocs, max[name]; bad = 1 }
		else { printf "ok:        %s %s allocs/op (ceiling %s)\n", name, allocs, max[name] }
	}
	END {
		for (b in max) if (!(b in seen)) { printf "missing:   %s gated but not run\n", b; bad = 1 }
		exit bad
	}
'
