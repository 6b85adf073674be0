// Package adaptrm is an energy-efficient runtime resource manager for
// adaptable multi-application mapping on heterogeneous multi-core
// platforms, reproducing Khasanov & Castrillon, "Energy-efficient Runtime
// Resource Management for Adaptable Multi-application Mapping" (DATE
// 2020).
//
// The library implements the full hybrid mapping flow of the paper:
//
//   - design time: dataflow application models (package kpn), a virtual
//     big.LITTLE platform with a power model (vplat), and exhaustive
//     design-space exploration with Pareto filtering (dse) that produces
//     per-application operating-point tables ⟨θ, τ, ξ⟩;
//   - runtime: the MMKP-MDF scheduling heuristic (the paper's
//     contribution), the EX-MEM exact reference and the MMKP-LR baseline,
//     fixed-mapping baselines, and an online runtime manager with
//     admission control, progress tracking and energy accounting;
//   - evaluation: the 1676-case workload generator of Table III and the
//     harness regenerating Table IV and Figures 2–4;
//   - service: a concurrent fleet front-end (NewFleet) hosting many
//     independent devices — each a platform plus its own runtime
//     manager — behind sharded worker goroutines with buffered
//     mailboxes, per-device virtual clocks and aggregated fleet
//     statistics, plus a memoizing schedule cache
//     (NewCachingScheduler) that lets repeated workload shapes skip
//     the MMKP-MDF solve; cached results are re-validated against the
//     concrete job set before reuse, so admission correctness never
//     depends on the cache. Multi-tenant traces for fleet experiments
//     come from GenerateFleetTrace, and cmd/rmserve replays them end
//     to end.
//   - protocol: a transport-agnostic service API (Service) with typed
//     request/response messages — SubmitRequest → SubmitResult carrying
//     the job id, the accept/reject verdict and the completions — a
//     context.Context on every call, and a structured error taxonomy
//     (ErrRejected, ErrUnknownDevice, ErrOverloaded, ErrQuotaExceeded,
//     ...) that survives serialisation: errors.Is matches by taxonomy
//     code on both sides of a wire. (*Fleet).Service() is the
//     in-process implementation; NewHTTPServer exposes any Service as
//     a JSON/HTTP daemon with per-tenant bearer tokens, device
//     authorisation and request quotas, and NewHTTPClient is the
//     matching Go client — itself a Service, behaviourally
//     interchangeable with the in-process fleet (the test suite holds
//     both to identical deterministic results). cmd/rmserve -listen
//     runs the ready-made daemon. The hot verbs — submit, advance and
//     cancel, requests and results — skip reflection on both sides of
//     the wire: a hand-written codec writes exactly the bytes
//     encoding/json writes and reads the canonical JSON subset those
//     bytes belong to, and hands anything else (escapes, non-ASCII,
//     null, unknown or case-variant keys, malformed input) to
//     encoding/json over the same bytes, so the wire and every
//     accept/reject decision are unchanged. FuzzWireCodec holds it to
//     encoding/json.
//   - batched admission: SubmitBatch decides several same-time requests
//     for one device in a single call; a jointly feasible batch costs
//     one scheduler activation instead of one per request (the solve
//     runs over the warm allocation-free packer), and an infeasible one
//     falls back to per-request decisions in arrival order — so
//     verdicts, job ids and the final schedule are always identical to
//     sequential submission, only the activation count shrinks. Both
//     transports implement the BatchService extension (POST
//     /v1/submit-batch over HTTP; a k-item batch costs k quota units),
//     and fleets additionally coalesce queued same-device submits
//     automatically within FleetOptions.BatchWindow seconds of virtual
//     time, amortising activations under the bursty multi-tenant
//     traffic GenerateFleetTrace produces with BurstSize/BurstWindow.
//   - streaming: every runtime manager emits typed lifecycle events —
//     EventJobAdmitted, EventJobRejected, EventJobStarted,
//     EventJobCompleted, EventJobCancelled, EventScheduleChanged — with
//     per-device monotone, gap-free sequence numbers, and Watch
//     subscribes to them through any supporting Service. The fleet fans
//     events out through per-subscriber bounded buffers whose overflow
//     converts into an in-stream EventLagged marker (carrying the first
//     dropped sequence number and a drop count), so a stalled consumer
//     loses events — explicitly — but never blocks a shard worker; the
//     publish path is gated allocation-free like the packer. A
//     single-device watch resumes from any retained sequence number
//     (WatchRequest.FromSeq, backed by a per-device history ring of
//     FleetOptions.EventHistory events). Over HTTP the stream is GET
//     /v1/watch as Server-Sent Events — "id:" carries the sequence
//     number, "data:" the Event JSON, comment lines heartbeat idle
//     connections — and the client's Watch is channel-based and itself
//     a WatchService, so the equivalence suite pins both transports to
//     byte-identical event logs that reconstruct the managers' own
//     admission statistics and executed timelines; a future gRPC
//     streaming binding inherits that contract. Tenants can also be
//     paced, not just budgeted: Tenant.Rate/Burst attach a token bucket
//     (a k-item batch costs k tokens, refusals reserve nothing,
//     never-executed operations refund) driven by a virtual-clock hook
//     for deterministic tests — rmserve -quota-rate/-quota-burst on the
//     command line.
//
// # Performance
//
// The scheduler core is allocation-free on its hot path: a reusable
// EDF packer (internal/sched.Packer) keeps pooled segment, placement
// and usage buffers with incrementally maintained per-segment resource
// vectors, assignments are dense position-keyed slices instead of
// per-trial map clones, and MMKP-MDF filters candidate configurations
// incrementally as knapsack containers shrink. Equivalence tests pin
// the rewrite to a retained naive reference implementation
// (byte-identical schedules), and CI gates allocs/op of the hot-path
// benchmarks on every push (scripts/bench-allocs-gate.sh against
// benchmarks/allocs-baseline.txt; methodology in benchmarks/README.md).
// cmd/rmeval takes -cpuprofile/-memprofile for pprof evidence when
// touching these paths.
//
// # Cache tiers and anytime refinement
//
// The fleet closes the quality gap between the µs-latency MMKP-MDF
// heuristic and the exact EX-MEM reference without giving up admission
// latency, using two cooperating mechanisms:
//
//   - shared cache tier: FleetOptions.SharedCache installs one
//     fleet-wide read-mostly store (NewSharedScheduleCache) behind
//     every per-device cache. A per-device L1 miss falls through to
//     the tier — keyed by platform hash plus the same canonical
//     workload signature, re-validated against the concrete job set
//     exactly like an L1 hit, and allocation-free on the probe
//     (BenchmarkSharedTierLookup, gated at 0) — so one device's solve
//     warms every device with the same platform. Promotions merge
//     deterministically: lowest energy wins, an exact schedule beats a
//     heuristic one at equal energy, and the canonical encoding breaks
//     exact ties, so the tier's content is independent of device
//     interleaving. Save/Load persist it as canonical JSON sorted by
//     signature (byte-identical regeneration); rmserve -cache-warm
//     loads such a warm file at start and -cache-warm-out saves one at
//     shutdown (scripts/warm-cache.sh builds them offline).
//   - anytime refinement: FleetOptions.Refine attaches a bounded
//     background pool (internal/anytime) that re-solves every accepted
//     admission's job set with budgeted EX-MEM
//     (exmem.ScheduleBudgeted: the incumbent is the heuristic's
//     energy, a node budget caps the search, and the branch-and-bound
//     prunes on an admissible fractional-switching relaxation).
//     Admission still returns the MDF schedule immediately; when the
//     exact search finds a strictly better schedule it is first
//     promoted into the shared tier and then swapped into the device
//     through the ordinary event machinery — an EventScheduleSwapped
//     event with the full schedule as payload, so watch streams, the
//     flightlog and the durable WAL see it like any lifecycle event
//     and recovery replays the swap verbatim (no re-search). Swaps are
//     refused if the device's job set changed since the offer (stale),
//     and with Refine off the fleet is byte-identical to previous
//     behaviour — the equivalence suite pins device states, event
//     logs and deterministic statistics.
//   - search records: a search that finds nothing is still a fact
//     worth keeping — exmem.ErrNoImprovement proves the admitted
//     schedule optimal, exmem.ErrBudget says the same search at the
//     same budget fails the same way. The refiner reports both through
//     its Searched hook and the shared tier keeps, per signature, how
//     far an exact search of that shape has been pushed without beating
//     its incumbent: the exhausted node budget, or a sentinel
//     (SearchComplete) for a search that ran to completion. The record
//     belongs to the shape, not to the schedule that currently wins the
//     entry — it merges by max and survives entry replacement, so the
//     tier stays independent of device interleaving. The refiner's
//     probe skips a task whose shape holds an exact entry or a record
//     at or above the current budget; only a larger -refine-budget
//     re-opens a budget-exhausted shape, nothing re-opens a completed
//     one. A record never serves a schedule: everything reused from
//     either tier is still re-validated against the concrete job set,
//     and swap offers are still re-validated by the manager. In the
//     warm file the record is one optional per-entry field, "searched"
//     (version still 1; files without it load and save back
//     unchanged), so a daemon restarted from a warm file — or a fleet
//     meeting yesterday's shapes again — starts with the proofs instead
//     of redoing them.
//
// Together they give "exact quality at heuristic latency" on a warm
// fleet: recurring workload shapes hit exact entries at cache-lookup
// latency from the first request on (BenchmarkFleetAnytimeWarm in
// benchmarks/README.md records the p99/energy evidence). Per-tier
// counters — L1 hits, shared hits, re-packs, promotions, refinement
// searches and swaps — surface in /v1/stats and /metrics; the tier's
// entry, exact and searched-to-completion/-to-budget counts print in
// rmserve's warm-load and shutdown reports.
//
// # Multi-node routing
//
// A fleet outgrows one process along two axes — device count and
// admission rate — and the service layer scales past both without
// changing the protocol, by composing Services:
//
//   - placement (internal/placement): who owns which device is a
//     first-class, transport-independent concern. Placement maps a
//     device index to an owner slot; Modulo is the single-node default
//     (byte-identical to the fleet's historical dev % shards
//     assignment, pinned by test), and Ring is a seeded consistent-hash
//     ring — a pure function of {owners, replicas, seed}, so every
//     router instance, restart and operator runbook derives the same
//     mapping with no coordination, and growing the owner set remaps
//     only ~1/owners of the devices. FleetOptions can carry a custom
//     Placement to repartition devices across shards; DumpJSON emits
//     the full point table as canonical JSON for golden tests and
//     operator inspection.
//   - routing (internal/router): NewRouter wraps N backend Services —
//     typically HTTP clients for independent rmserve nodes, each
//     hosting the full device space — as one api.Service (Watch and
//     Batch included) that sends every device-addressed call to the
//     ring owner. Per-device request order is preserved (a device
//     always resolves to the same backend); fleet-wide stats fan out
//     concurrently and merge deterministically (api.MergeStats:
//     counters summed — exact, since only the owner's counters are
//     nonzero per device — device count and queue high-water mark
//     maxed, controller mode worst-of); fleet-wide watches merge one
//     stream per backend, preserving per-device sequence order; single-device
//     watches, including FromSeq resumes, delegate wholesale to the
//     owner, whose retention ring holds the history. Backend taxonomy
//     errors and the caller's own context cancellations pass through
//     untouched — a client two HTTP hops away still matches errors.Is
//     against the same sentinels — while transport failures surface as
//     ErrUnavailable naming the dead peer (HTTP 502 on the wire), and
//     a merged query refuses rather than return a silent partial sum.
//     rmserve's router gives each peer a response deadline
//     (httpapi.NewPeerHTTPClient, 30 s): a peer that accepts the
//     connection and never answers is unavailable once it passes, while
//     open watch streams are never cut.
//     The router is itself a Service, so it serves through the same
//     HTTP front-end: rmserve -route -peers host1:p,host2:p boots a
//     routing daemon whose /metrics adds per-peer request counters,
//     error classes and latency histograms on top of the merged fleet
//     gauges. The cross-topology equivalence suite pins one in-process
//     fleet against the router over two live HTTP nodes sharing the
//     ring: identical verdicts, job ids, merged statistics and
//     per-device event logs (internal/router; scripts/
//     multi-node-smoke.sh re-proves it over real sockets in CI, dead
//     peer included).
//
// # Operating rmserve
//
// The daemon (rmserve -listen) ships its own observability surface,
// dependency-free:
//
//   - GET /metrics exports the fleet's statistics in the Prometheus
//     text format — admission and lifecycle counters (aggregate and
//     per device), scheduler activations and wall time, schedule-cache
//     and coalescing counters, watch subscribers and dropped events,
//     per-shard queue-depth gauges, per-tenant quota refusals, and the
//     HTTP layer's own per-route request counts and latency histograms
//     (fixed deterministic buckets). The exported counters are exactly
//     the values /v1/stats reports — an equivalence test pins them
//     byte-identical — and recording costs the serving path zero
//     allocations (internal/metrics, gated in CI).
//   - GET /healthz answers {"status":"ok","devices":N,"uptime_s":...}
//     for liveness probes; both routes are scrape-friendly and
//     unauthenticated even on a tenanted daemon.
//   - GET /debug/flightlog dumps the bounded in-memory postmortem ring
//     (internal/flightlog): the newest requests, their routes, status
//     codes and durations, interleaved with the device lifecycle
//     events tailed from the fleet's own watch stream. SIGQUIT writes
//     the same dump to stderr without stopping the daemon —
//     "what was the server doing just now?" after an incident.
//     -flightlog-size tunes the retention; on a tenanted daemon the
//     route is scoped like fleet-wide stats.
//   - GET /debug/pprof/ serves the runtime profiles, but only with
//     -pprof-token set and presented (Authorization bearer or
//     ?token=); profiling stays unreachable by default.
//
// Every integer statistic is declared once, as a row of api.Counters:
// its Prometheus name and help, counter or gauge, merge rule (sum or
// max), whether it is deterministic, and whether /metrics splits it
// per device. Deterministic(), the routed merge (api.MergeStats) and
// the /metrics service families all derive from that table, so adding
// a stats counter means adding one StatsResult field and one
// api.Counters row (plus, for a fleet counter, the fleet.Stats field
// and its copy in the fleet's service view); a test fails for a field
// without a row.
//
// cmd/rmsoak is the matching load harness: an open-loop soak of a live
// daemon driving the same seeded traces the replay mode uses, with
// client-side HDR latency percentiles per op kind and a /metrics
// scrape before and after that must reconcile exactly with the
// client's own counts (-strict fails CI otherwise; see
// scripts/smoke-soak.sh and benchmarks/README.md for recorded runs).
//
// # Adaptive control and graceful degradation
//
// Under overload a static configuration collapses: queues fill, every
// admission waits on a full solve, and the latency the paper's runtime
// exists to protect is lost exactly when traffic peaks. rmserve
// -control closes the loop instead (internal/control): a deterministic,
// externally-ticked controller observes per-shard queue depth (and
// optionally mean admission latency) and owns three actuators, applied
// in order of increasing damage:
//
//   - coalescing window: under sustained queue pressure the batch
//     window stretches (doubling toward -control-max-window), amortising
//     solver activations across queued submits, and shrinks back once
//     drained;
//   - degradation tier: normal → heuristic_only (refinement offers are
//     skipped and admission falls back to the pure MDF heuristic,
//     trading allocation quality for latency — the graceful-degradation
//     idea of E-Mapper, arXiv 2406.18980) → shedding (admissions are
//     rejected early with the overloaded taxonomy error before any
//     scheduler activation is spent; advances and cancels still run, so
//     admitted work keeps draining);
//   - refinement throttle: background exact searches pause outside the
//     normal tier.
//
// Layers read a consistent Limits snapshot per operation pickup rather
// than static knobs; without -control a fixed snapshot pins behaviour
// byte-identical to a build without the control layer (and a live
// controller under steady light load is pinned identical too, under
// -race). Hysteresis (consecutive-tick thresholds, slower out than in)
// keeps the loop from oscillating at a boundary. Every tier transition
// emits a mode_changed watch event that rides the ordinary event
// machinery — SSE streams, the WAL, crash recovery — and replays
// verbatim, so a recovered device resumes in the mode it crashed in.
// /healthz names the current mode and deepest shard backlog (a probe
// can pull a shedding backend out of rotation before requests bounce),
// /metrics and /v1/stats export the mode, shed count and controller
// decisions, a routed deployment reports the worst tier across its
// backends, and rmsoak counts overloaded refusals separately from
// transport errors so an intentionally-shedding daemon still passes
// -strict reconciliation (scripts/smoke-soak.sh drives a 5x overload
// stage in CI; the controller tick is allocation-free, gated by
// BenchmarkControlTick).
//
// # Durability and recovery
//
// With rmserve -data-dir the fleet survives kill -9: internal/durable
// tails every device's watch stream into a per-device write-ahead log
// of length-prefixed, CRC32C-checksummed event frames (segment files
// rotated by size, named by first sequence number) and periodically
// snapshots the device's full deterministic state (canonical JSON plus
// the last covered sequence number). On start the directory is
// recovered: each segment is decoded to its longest valid prefix —
// torn tails from a mid-write crash are physically truncated, never an
// error — the newest snapshot that anchors a contiguous event tail
// seeds the device, and the tail replays through the same manager
// transitions that produced it, so the recovered /v1/stats and
// executed timelines are byte-identical to the persisted prefix of the
// pre-crash state (scripts/crash-recovery.sh proves this in CI with a
// real SIGKILLed daemon). The writer never sits on the admission path:
// appends happen on a per-device goroutine behind the same bounded
// buffers as any other watch subscriber, and if the subscription ever
// lags past the retained history the writer rescues itself with an
// extra snapshot rather than stalling a shard worker. -fsync picks the
// durability/throughput point (always | interval | never); the append
// itself is gated allocation-free (BenchmarkWALAppend). Replay-mode
// details, recovered-vs-live divergences (solver-incidental counters
// only) and recovery timings are documented in internal/durable and
// benchmarks/README.md.
//
// # Quickstart
//
//	plat := adaptrm.OdroidXU4()
//	lib, _ := adaptrm.StandardLibrary(plat)
//	mgr, _ := adaptrm.NewManager(plat, lib, adaptrm.NewMMKPMDF(), adaptrm.ManagerOptions{})
//	id, accepted, _, _ := mgr.Submit(0, "audio-filter/medium", 25.0)
//
// See the examples/ directory for runnable programs and cmd/ for the
// evaluation tools.
package adaptrm
