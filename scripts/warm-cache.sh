#!/usr/bin/env bash
# Build a warm shared-cache file offline: replay a seeded trace through
# rmserve with the fleet-wide shared tier and anytime refinement
# enabled, and save the tier at shutdown. Close drains the refinement
# queue before saving, so the file carries exact (EX-MEM) entries for
# every problem shape the refiner got to — a daemon started with
#   rmserve -cache-warm <file>
# then serves those shapes exact-quality schedules at cache-lookup
# latency from the first request on (see benchmarks/README.md,
# "Anytime refinement on a warm fleet").
#
# The file also carries "don't search this again" records: for every
# shape whose search found nothing better than the admitted schedule, how
# far that search was pushed ("searched" on the entry — the node budget
# it exhausted, or 9223372036854775807 for a search that ran to
# completion). A daemon warmed from the file skips refinement of a shape
# whose record reaches its own -refine-budget, so WARM_BUDGET decides how
# far the records reach: build the file with at least the budget the
# daemon will run with, or the budget-exhausted shapes are searched again.
#
# The file format is canonical JSON sorted by signature: regenerating
# with the same trace parameters and binary produces a byte-identical
# file, so warm files can be diffed and cached in CI.
#
# Usage: scripts/warm-cache.sh OUTFILE [extra rmserve flags...]
#
# Environment knobs (all forwarded to rmserve's replay mode):
#   WARM_DEVICES   fleet size           (default 8)
#   WARM_HORIZON   trace seconds        (default 300)
#   WARM_RATE      arrivals/s/device    (default 0.05)
#   WARM_SEED      trace seed           (default 1)
#   WARM_BUDGET    refinement node budget per search (default 0 = library default)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
	echo "usage: $0 OUTFILE [extra rmserve flags...]" >&2
	exit 2
fi
out=$1
shift

DEVICES=${WARM_DEVICES:-8}
HORIZON=${WARM_HORIZON:-300}
RATE=${WARM_RATE:-0.05}
SEED=${WARM_SEED:-1}
BUDGET=${WARM_BUDGET:-0}

go run ./cmd/rmserve \
	-devices "$DEVICES" -horizon "$HORIZON" -rate "$RATE" -seed "$SEED" \
	-cache-shared -cache-warm-out "$out" \
	-refine -refine-workers 2 -refine-budget "$BUDGET" \
	"$@"

echo "warm-cache: wrote $out"
