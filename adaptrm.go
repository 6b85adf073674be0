package adaptrm

import (
	"context"
	"io"
	"net/http"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/exmem"
	"adaptrm/internal/fixedmap"
	"adaptrm/internal/fleet"
	"adaptrm/internal/flightlog"
	"adaptrm/internal/greedy"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/job"
	"adaptrm/internal/kpn"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/opset"
	"adaptrm/internal/placement"
	"adaptrm/internal/platform"
	"adaptrm/internal/predict"
	"adaptrm/internal/rm"
	"adaptrm/internal/router"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// Core model types, re-exported for downstream users.
type (
	// Platform describes a heterogeneous multi-core device.
	Platform = platform.Platform
	// CoreType is one homogeneous resource type of a platform.
	CoreType = platform.CoreType
	// Alloc is a per-type core-count vector θ.
	Alloc = platform.Alloc
	// OperatingPoint is one Pareto point ⟨θ, τ, ξ⟩ of an application.
	OperatingPoint = opset.Point
	// Table is an application variant's operating-point table.
	Table = opset.Table
	// Library is a named collection of tables.
	Library = opset.Library
	// Job is one admitted, unfinished request σ = ⟨α, δ, λ, ρ⟩.
	Job = job.Job
	// JobSet is a scheduling problem.
	JobSet = job.Set
	// Schedule is a list of mapping segments κ = {μ_i × Δ_i}.
	Schedule = schedule.Schedule
	// Segment is one mapping over a time interval.
	Segment = schedule.Segment
	// Placement maps a job to an operating point within a segment.
	Placement = schedule.Placement
	// Scheduler turns a job set into a schedule.
	Scheduler = sched.Scheduler
	// Manager is the online runtime manager.
	Manager = rm.Manager
	// ManagerOptions tunes the runtime manager.
	ManagerOptions = rm.Options
	// ManagerStats aggregates runtime-manager activity.
	ManagerStats = rm.Stats
	// Completion describes one finished job.
	Completion = rm.Completion
	// ManagerRequest is one admission request of a manager-level batch
	// (application plus deadline; the arrival time is the batch's).
	ManagerRequest = rm.Request
	// ManagerVerdict is the per-request outcome of Manager.SubmitBatch.
	ManagerVerdict = rm.Verdict
	// WorkloadCase is one static scheduling problem of the test suite.
	WorkloadCase = workload.Case
	// WorkloadParams tunes suite generation.
	WorkloadParams = workload.Params
	// WorkloadLevel is the deadline tightness of a test case.
	WorkloadLevel = workload.Level
	// TraceRequest is one arrival of a dynamic workload trace.
	TraceRequest = workload.Request
	// TraceParams tunes dynamic trace generation.
	TraceParams = workload.TraceParams
	// Fleet is the concurrent multi-device runtime-management service.
	Fleet = fleet.Fleet
	// FleetDevice describes one device of a fleet.
	FleetDevice = fleet.DeviceConfig
	// FleetOptions tunes the fleet front-end (shards, mailboxes, cache).
	FleetOptions = fleet.Options
	// FleetStats aggregates fleet-wide activity.
	FleetStats = fleet.Stats
	// FleetRequest is one arrival of a multi-tenant fleet trace.
	FleetRequest = workload.FleetRequest
	// FleetTraceParams tunes multi-tenant fleet trace generation.
	FleetTraceParams = workload.FleetTraceParams
	// ScheduleCache memoizes solved schedules by workload shape.
	ScheduleCache = schedcache.Cache
	// ScheduleCacheParams tunes signature buckets and cache capacity.
	ScheduleCacheParams = schedcache.Params
	// ScheduleCacheStats counts schedule-cache activity.
	ScheduleCacheStats = schedcache.Stats
	// SharedScheduleCache is the fleet-wide read-mostly second cache
	// tier behind every per-device ScheduleCache
	// (FleetOptions.SharedCache): one device's solve — heuristic or
	// exact — warms every device with the same platform, and warm
	// files built offline (scripts/warm-cache.sh, rmserve -cache-warm)
	// load into it.
	SharedScheduleCache = schedcache.Shared
	// SharedScheduleCacheStats counts shared-tier activity (entries,
	// exact entries, hits, promotions).
	SharedScheduleCacheStats = schedcache.SharedStats
	// Controller is the closed-loop degradation controller
	// (FleetOptions.Control): externally ticked, it observes queue
	// pressure and admission latency and tunes the coalescing window,
	// the degradation tier and the refinement throttle.
	Controller = control.Controller
	// ControllerConfig tunes the controller's thresholds and hysteresis.
	ControllerConfig = control.Config
	// ControllerStatus is an observability snapshot of the controller.
	ControllerStatus = control.Status
	// ControlMode is the degradation tier of the serving stack.
	ControlMode = api.Mode
)

// The degradation tiers a Controller walks through, least to most
// degraded: full service, heuristic-only admission (refinement off),
// and early load shedding with ErrOverloaded.
const (
	ControlModeNormal        = api.ModeNormal
	ControlModeHeuristicOnly = api.ModeHeuristicOnly
	ControlModeShedding      = api.ModeShedding
)

// NewController builds a closed-loop degradation controller to hand a
// fleet via FleetOptions.Control. The caller owns ticking: drive
// Controller.Tick from a ticker (stop it before Fleet.Close), and read
// Controller.Status for observability.
func NewController(cfg ControllerConfig) *Controller { return control.New(cfg) }

// Service-protocol types, re-exported for downstream users. The
// protocol (internal/api) is transport-agnostic: the in-process fleet
// view ((*Fleet).Service()) and the HTTP client (NewHTTPClient) both
// implement Service and are behaviourally interchangeable — same typed
// results, same error taxonomy, same deterministic statistics for the
// same per-device request order.
type (
	// Service is the transport-agnostic runtime-management interface:
	// Submit/Advance/Cancel/Stats, each taking a context and returning
	// typed results and taxonomy errors.
	Service = api.Service
	// SubmitRequest asks a device to admit one application request.
	SubmitRequest = api.SubmitRequest
	// SubmitResult carries the admission decision: job id, verdict and
	// the completions observed while the device clock advanced.
	SubmitResult = api.SubmitResult
	// BatchService is the optional batched extension of Service; both
	// bundled transports implement it. Call it uniformly through the
	// SubmitBatch function, which falls back to sequential submission
	// on a plain Service.
	BatchService = api.BatchService
	// BatchSubmitRequest asks a device to decide several same-time
	// requests in one scheduler activation.
	BatchSubmitRequest = api.BatchSubmitRequest
	// BatchItem is one request of a batch (application plus deadline).
	BatchItem = api.BatchItem
	// BatchSubmitResult carries one verdict per item plus the
	// completions observed while the device clock advanced.
	BatchSubmitResult = api.BatchSubmitResult
	// BatchVerdict is the admission decision for one batch item; clean
	// rejections and per-item failures arrive as taxonomy errors.
	BatchVerdict = api.BatchVerdict
	// AdvanceRequest moves a device's virtual clock forward.
	AdvanceRequest = api.AdvanceRequest
	// AdvanceResult lists the completions an advance produced.
	AdvanceResult = api.AdvanceResult
	// CancelRequest aborts an active job, freeing its resources.
	CancelRequest = api.CancelRequest
	// CancelResult acknowledges a cancellation.
	CancelResult = api.CancelResult
	// StatsRequest fetches fleet-wide or per-device statistics.
	StatsRequest = api.StatsRequest
	// StatsResult aggregates service activity; Deterministic() strips
	// the wall-clock fields for cross-transport comparison.
	StatsResult = api.StatsResult
	// ServiceCompletion reports one finished job on the wire (the
	// protocol form of Completion).
	ServiceCompletion = api.Completion
	// Event is one device lifecycle event on the wire: per-device
	// monotone sequence number, type, virtual time and the subject
	// job's coordinates.
	Event = api.Event
	// EventType discriminates watch events (EventJobAdmitted, ...,
	// EventLagged).
	EventType = api.EventType
	// WatchRequest subscribes to the event stream: optional device
	// filter, resume-from-sequence, buffer override.
	WatchRequest = api.WatchRequest
	// WatchService is the streaming extension of Service; the
	// in-process fleet service and the HTTP client both implement it
	// with identical semantics (ordering, resume, overflow markers).
	WatchService = api.WatchService
	// ManagerEvent is the runtime manager's in-process event form (the
	// fleet converts it to Event, stamping the device).
	ManagerEvent = rm.Event
	// ServiceError is the serialisable taxonomy error: a stable code
	// plus a message; errors.Is matches by code across transports.
	ServiceError = api.Error
	// FleetService is the fleet's in-process Service implementation,
	// obtained from (*Fleet).Service().
	FleetService = fleet.Service
	// HTTPServer serves a Service over JSON/HTTP with per-tenant
	// authentication, device authorisation and request quotas.
	HTTPServer = httpapi.Server
	// HTTPServerOptions configures the HTTP front-end (tenant list).
	HTTPServerOptions = httpapi.ServerOptions
	// HTTPClient is the Go client of the daemon protocol; it is itself
	// a Service.
	HTTPClient = httpapi.Client
	// Tenant is one authenticated client of the daemon: token, allowed
	// devices and request budget.
	Tenant = httpapi.Tenant
	// FlightLog is the bounded in-memory postmortem ring the HTTP
	// server can record requests into (HTTPServerOptions.FlightLog);
	// see internal/flightlog.
	FlightLog = flightlog.Log
	// DevicePlacement maps a device index to its owner slot — a fleet
	// shard or a routed backend node (FleetOptions.Placement, NewRouter).
	DevicePlacement = placement.Placement
	// ModuloPlacement is the single-node default placement: device
	// modulo owner count, byte-identical to the fleet's historical
	// shard assignment.
	ModuloPlacement = placement.Modulo
	// PlacementRing is the seeded consistent-hash ring: a pure function
	// of its config, stable across restarts, minimal remap on growth.
	PlacementRing = placement.Ring
	// PlacementRingConfig fixes a ring: owner count, virtual-node
	// replicas per owner, hash seed.
	PlacementRingConfig = placement.RingConfig
	// Router is the multi-node front-end: one Service (Watch and Batch
	// included) routing every device-addressed call across backend
	// nodes by placement. rmserve -route is the ready-made daemon.
	Router = router.Router
	// RouterBackend is one routed node: its Service (typically an
	// HTTPClient) plus the name used in errors and metric labels.
	RouterBackend = router.Backend
)

// NewFlightLog builds a postmortem ring retaining the newest capacity
// records (capacity <= 0 uses the package default).
func NewFlightLog(capacity int) *FlightLog { return flightlog.New(capacity) }

// Service error taxonomy, re-exported. All survive serialisation:
// errors.Is holds against a live daemon exactly as in process.
var (
	// ErrRejected is the admission verdict "reject" (taxonomy code
	// "infeasible") — the service-level counterpart of ErrInfeasible,
	// which remains the scheduler-level sentinel.
	ErrRejected = api.ErrInfeasible
	// ErrUnknownDevice: the request addressed a device outside the fleet.
	ErrUnknownDevice = api.ErrUnknownDevice
	// ErrUnknownApp: the application is not in the device's library.
	ErrUnknownApp = api.ErrUnknownApp
	// ErrUnknownJob: the job id names no active job on the device.
	ErrUnknownJob = api.ErrUnknownJob
	// ErrBadRequest: malformed request (bad payload, deadline ≤ arrival,
	// time moving backwards).
	ErrBadRequest = api.ErrBadRequest
	// ErrPayloadTooLarge: the request body exceeds the transport limit.
	ErrPayloadTooLarge = api.ErrPayloadTooLarge
	// ErrOverloaded: backpressure — the device mailbox stayed full for
	// the whole context lifetime.
	ErrOverloaded = api.ErrOverloaded
	// ErrQuotaExceeded: the tenant spent its request budget.
	ErrQuotaExceeded = api.ErrQuotaExceeded
	// ErrUnauthorized: missing or unknown tenant token.
	ErrUnauthorized = api.ErrUnauthorized
	// ErrForbidden: the tenant may not address the device.
	ErrForbidden = api.ErrForbidden
	// ErrServiceClosed: the service is shutting down.
	ErrServiceClosed = api.ErrClosed
	// ErrUnavailable: a routed backend node could not be reached (the
	// router names the peer in the message; HTTP 502 on the wire).
	ErrUnavailable = api.ErrUnavailable
)

// ErrInfeasible is returned by schedulers when no feasible schedule
// exists; the runtime manager then rejects the request.
var ErrInfeasible = sched.ErrInfeasible

// Watch event taxonomy, re-exported. Every transport carries exactly
// these kinds; EventLagged is the transport-level overflow marker a
// slow consumer receives instead of blocking the service.
const (
	EventJobAdmitted     = api.EventJobAdmitted
	EventJobRejected     = api.EventJobRejected
	EventJobStarted      = api.EventJobStarted
	EventJobCompleted    = api.EventJobCompleted
	EventJobCancelled    = api.EventJobCancelled
	EventScheduleChanged = api.EventScheduleChanged
	EventScheduleSwapped = api.EventScheduleSwapped
	EventClockAdvanced   = api.EventClockAdvanced
	EventLagged          = api.EventLagged
)

// Deadline tightness levels of the evaluation workload (Table III).
const (
	// Weak deadlines scale a random point's remaining time by 2–6.
	Weak = workload.Weak
	// Tight deadlines scale by 0.6–2.
	Tight = workload.Tight
)

// OdroidXU4 returns the paper's evaluation platform: 4 Cortex-A7 little
// cores at 1.5 GHz and 4 Cortex-A15 big cores at 1.8 GHz.
func OdroidXU4() Platform { return platform.OdroidXU4() }

// Motivational2L2B returns the 2-little/2-big example device of the
// paper's Section III.
func Motivational2L2B() Platform { return platform.Motivational2L2B() }

// NewMMKPMDF returns the paper's MMKP-MDF scheduler (Algorithm 1).
func NewMMKPMDF() Scheduler { return core.New() }

// NewMMKPLR returns the MMKP-LR baseline (Lagrangian relaxation,
// single-segment scope).
func NewMMKPLR() Scheduler { return lagrange.New() }

// NewEXMEM returns the EX-MEM exact reference scheduler (memoized
// exhaustive search within the cut-at-completion class).
func NewEXMEM() Scheduler { return exmem.New() }

// NewFixedMapper returns a fixed-mapping baseline: remapOnFinish=false
// reproduces Fig. 1(a) (map once at arrival), true reproduces Fig. 1(b)
// (remap at every completion).
func NewFixedMapper(remapOnFinish bool) Scheduler {
	if remapOnFinish {
		return fixedmap.New(fixedmap.Remap)
	}
	return fixedmap.New(fixedmap.OnArrival)
}

// NewMMKPGreedy returns the MMKP-GR baseline: a per-segment greedy in the
// spirit of the Ykman-Couvreur aggregate-resource heuristic the paper's
// related work builds on.
func NewMMKPGreedy() Scheduler { return greedy.New() }

// Predictor forecasts request arrivals for proactive admission.
type Predictor = predict.Predictor

// NewInterArrivalPredictor returns an online per-application
// inter-arrival predictor (EMA-smoothed).
func NewInterArrivalPredictor() *predict.InterArrival { return predict.NewInterArrival() }

// NewProactive wraps a scheduler with prediction-gated admission: a
// request is admitted only if the schedule leaves room for arrivals the
// predictor forecasts within the horizon (the Niknafs-style extension of
// the paper's related work). When protect is non-empty, only forecasts
// of the listed applications gate admission.
func NewProactive(inner Scheduler, pred Predictor, lib *Library, horizonSec float64, protect ...string) Scheduler {
	return &predict.Scheduler{Inner: inner, Pred: pred, Lib: lib, Horizon: horizonSec, Protect: protect}
}

// OdroidXU4DVFS returns the evaluation platform with additional DVFS
// levels per cluster; use it with ExploreDVFS to fold frequency
// selection into the operating points.
func OdroidXU4DVFS() Platform { return platform.OdroidXU4DVFS() }

// ExploreDVFS runs the design-time DSE over allocations and frequency
// levels, producing richer Pareto fronts (thinned to maxPoints per
// table; 0 keeps everything).
func ExploreDVFS(plat Platform, maxPoints int) (*Library, error) {
	return dse.ExploreSuite(kpn.BenchmarkSuite(), plat, dse.Options{DVFS: true, MaxPointsPerTable: maxPoints})
}

// StandardLibrary runs the design-time flow (virtual benchmarking + DSE +
// Pareto filtering) for the paper's three applications and returns the
// operating-point library with the paper's Pareto counts (28/36/35).
func StandardLibrary(plat Platform) (*Library, error) {
	return dse.StandardLibrary(plat)
}

// NewManager creates an online runtime manager on the platform, serving
// requests against the library with the given scheduler.
func NewManager(plat Platform, lib *Library, s Scheduler, opt ManagerOptions) (*Manager, error) {
	return rm.New(plat, lib, s, opt)
}

// ScheduleJobs runs a scheduler on a static job set at instant t,
// validating the result. This is the one-shot entry point mirroring the
// paper's evaluation setting.
func ScheduleJobs(s Scheduler, jobs JobSet, plat Platform, t float64) (*Schedule, error) {
	k, err := s.Schedule(jobs, plat, t)
	if err != nil {
		return nil, err
	}
	if err := k.Validate(plat, jobs, t); err != nil {
		return nil, err
	}
	return k, nil
}

// RenderGantt draws a schedule as an ASCII chart in the style of the
// paper's Fig. 1 (big cores on top, one symbol per job).
func RenderGantt(w io.Writer, k *Schedule, jobs JobSet, plat Platform, width int) error {
	s, err := schedule.RenderGantt(k, jobs, plat, width)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// GenerateSuite builds the paper's 1676-case evaluation suite (Table III)
// from a library; see WorkloadParams for the generation rules.
func GenerateSuite(lib *Library, p WorkloadParams) ([]WorkloadCase, error) {
	return workload.Suite(lib, p)
}

// GenerateTrace samples a dynamic Poisson request trace over the library
// for online runtime-manager experiments.
func GenerateTrace(lib *Library, p TraceParams) ([]TraceRequest, error) {
	return workload.Trace(lib, p)
}

// NewFleet builds a concurrent multi-device runtime-management service
// and starts its shard workers; see FleetOptions for sharding, mailbox
// and schedule-cache tuning. Close the fleet to drain all devices and
// collect errors.
func NewFleet(devices []FleetDevice, opt FleetOptions) (*Fleet, error) {
	return fleet.New(devices, opt)
}

// GenerateFleetTrace samples one Poisson request stream per device from
// a single seed and merges them into a time-ordered multi-tenant trace.
func GenerateFleetTrace(lib *Library, p FleetTraceParams) ([]FleetRequest, error) {
	return workload.FleetTrace(lib, p)
}

// NewHTTPServer wraps a Service (typically (*Fleet).Service()) in the
// JSON/HTTP front-end: POST /v1/submit, /v1/advance, /v1/cancel, GET
// /v1/stats and /healthz, with optional per-tenant bearer-token
// authentication, device authorisation and request quotas. It fails on
// tenant lists with empty or duplicate tokens. The result is an
// http.Handler; serve it with net/http. cmd/rmserve -listen is the
// ready-made daemon.
func NewHTTPServer(svc Service, opt HTTPServerOptions) (*HTTPServer, error) {
	return httpapi.NewServer(svc, opt)
}

// NewHTTPClient builds the Go client of a daemon at baseURL (e.g.
// "http://localhost:8080"). The client implements Service, so code
// written against the in-process fleet runs unchanged against a remote
// daemon. token may be empty against an open server; hc may be nil for
// http.DefaultClient.
func NewHTTPClient(baseURL, token string, hc *http.Client) *HTTPClient {
	return httpapi.NewClient(baseURL, token, hc)
}

// SubmitBatch submits several same-time requests for one device through
// any Service: a native BatchService (the in-process fleet, the HTTP
// client) decides them in one call — and, when the batch is jointly
// feasible, one scheduler activation — while a plain Service falls back
// to sequential submission. Batched admission is behaviour-preserving:
// verdicts, job ids and the final schedule match one-by-one submission
// at the batch time; only the activation count (and latency under
// bursty traffic) differs. Fleets additionally coalesce queued
// same-device submits automatically when FleetOptions.BatchWindow is
// set.
func SubmitBatch(ctx context.Context, svc Service, req BatchSubmitRequest) (BatchSubmitResult, error) {
	return api.SubmitBatch(ctx, svc, req)
}

// Watch subscribes to a service's device event stream: admissions,
// rejections, starts, completions, cancellations and schedule changes,
// each with a per-device monotone sequence number. Both bundled
// transports support it — the in-process fleet fans events out through
// per-subscriber buffers, the HTTP client consumes the daemon's
// /v1/watch Server-Sent-Events endpoint — with identical semantics:
// per-device ordering, resume via WatchRequest.FromSeq, and an
// EventLagged marker (never blocking) when a consumer falls behind. A
// Service without watch support returns ErrBadRequest.
func Watch(ctx context.Context, svc Service, req WatchRequest) (<-chan Event, error) {
	ws, ok := svc.(WatchService)
	if !ok {
		return nil, api.Errf(api.ErrBadRequest, "service does not support watching")
	}
	return ws.Watch(ctx, req)
}

// NewPlacementRing builds the seeded consistent-hash placement. The
// ring is deterministic for a given config — every router instance,
// restart and operator runbook derives the same device→owner mapping
// with no coordination — and growing the owner set remaps only about
// 1/owners of the devices.
func NewPlacementRing(cfg PlacementRingConfig) (*PlacementRing, error) {
	return placement.NewRing(cfg)
}

// NewRouter composes backend Services — typically HTTPClients for
// independent rmserve nodes, each hosting the full device space — into
// one Service that routes every device-addressed call to the
// placement's owner, preserving per-device request order. Fleet-wide
// stats fan out and merge deterministically; fleet-wide watches merge
// one stream per backend; single-device watches (FromSeq resumes
// included) delegate to the owner. Backend taxonomy errors pass
// through untouched; unreachable peers surface as ErrUnavailable. A
// nil placement defaults to a ring over the backends. cmd/rmserve
// -route -peers is the ready-made routing daemon.
func NewRouter(backends []RouterBackend, place DevicePlacement) (*Router, error) {
	return router.New(backends, place)
}

// NewScheduleCache creates a goroutine-safe memoizing schedule cache.
func NewScheduleCache(p ScheduleCacheParams) *ScheduleCache {
	return schedcache.New(p)
}

// NewSharedScheduleCache creates the fleet-wide shared cache tier. Set
// it as FleetOptions.SharedCache (which requires FleetOptions.Cache) to
// let devices with identical platforms share solved schedules; combine
// with FleetOptions.Refine to promote exact (EX-MEM) refinements into
// the tier, and Save/Load to persist it as a canonical warm file.
func NewSharedScheduleCache() *SharedScheduleCache {
	return schedcache.NewShared()
}

// NewCachingScheduler wraps a scheduler with a memoizing schedule cache:
// repeated workload shapes (same application mix at similar progress and
// deadline slack on the same platform) skip the solve. Cached results
// are re-validated against the concrete job set before reuse, so the
// wrapper never admits a schedule the constraints forbid. A nil cache
// allocates a private one with default parameters.
func NewCachingScheduler(inner Scheduler, cache *ScheduleCache) Scheduler {
	return schedcache.Wrap(inner, cache)
}
