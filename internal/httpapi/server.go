// Package httpapi exposes an api.Service over JSON/HTTP and provides a
// Go client that is itself an api.Service, so every caller — tests,
// examples, tools — can run against the in-process fleet or a live
// daemon interchangeably.
//
// Wire protocol (v1):
//
//	POST /v1/submit        SubmitRequest      → SubmitResult
//	POST /v1/submit-batch  BatchSubmitRequest → BatchSubmitResult
//	POST /v1/advance       AdvanceRequest     → AdvanceResult
//	POST /v1/cancel        CancelRequest      → CancelResult
//	GET  /v1/stats[?device=N]                 → StatsResult
//	GET  /v1/watch[?device=N&from_seq=S&buffer=B] → Server-Sent Events
//	GET  /healthz                             → {"status":"ok","devices":N,"uptime_s":...}
//	GET  /metrics                             → Prometheus text format
//	GET  /debug/flightlog[?n=N]               → postmortem ring dump (opt-in)
//	GET  /debug/pprof/...                     → runtime profiles (token-gated, opt-in)
//
// /v1/watch (served when the wrapped Service implements
// api.WatchService) streams device lifecycle events as SSE: each event
// is written as "id: <seq>", "event: <type>" and a "data:" line holding
// the api.Event JSON, with comment-line heartbeats keeping idle
// connections alive. from_seq resumes a single-device stream from a
// sequence number; see api.WatchRequest for the semantics. Watching is
// read-only and quota-free, like stats.
//
// Successful calls return 200 with the result object. Failures return a
// taxonomy-derived status code and an envelope
//
//	{"error":{"code":"...","message":"..."},"result":{...}}
//
// whose optional result carries the partial outcome (e.g. the
// completions observed while a rejected submission advanced the device
// clock), so the HTTP round-trip loses nothing the in-process service
// reports. The client rebuilds the error from its code; errors.Is
// against the api sentinels holds on both sides of the wire.
//
// Authentication is per-tenant bearer tokens. A tenant may be
// restricted to a set of devices (403 outside it, including the
// fleet-wide stats aggregate and the fleet-wide watch, which only
// unrestricted tenants may open), given a request budget (429 once
// spent; a k-item batch costs k units) and a token-bucket rate quota
// (Tenant.Rate sustained operations per second with Tenant.Burst
// capacity; 429 when the bucket is empty). Budget and bucket compose:
// a request must clear both, and a refusal by either reserves nothing.
// The bucket refills against ServerOptions.Now, so tests drive it with
// a virtual clock and the admit/reject sequence is deterministic. A
// server configured with no tenants is open.
//
// The server instruments itself: every request is counted and timed
// per route, and GET /metrics exports those counters together with the
// wrapped service's statistics in the Prometheus text format (see
// metrics.go). ServerOptions.FlightLog attaches a bounded postmortem
// ring receiving one record per request; ServerOptions.PprofToken
// enables the token-gated net/http/pprof routes. Both are off by
// default.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/durable"
	"adaptrm/internal/flightlog"
)

// Tenant is one authenticated client of the daemon.
type Tenant struct {
	// Name identifies the tenant in logs and errors.
	Name string `json:"name"`
	// Token is the bearer token presented in the Authorization header.
	Token string `json:"token"`
	// Devices lists the device indices the tenant may address; empty
	// means all devices.
	Devices []int `json:"devices,omitempty"`
	// MaxRequests is the tenant's total budget of mutating calls
	// (submit, advance, cancel); 0 means unlimited. Stats, watches and
	// health checks are free.
	MaxRequests int `json:"max_requests,omitempty"`
	// Rate enables the token-bucket quota: the tenant's sustained
	// mutating-call rate in operations per second (a k-item batch costs
	// k tokens). 0 means unlimited. The bucket composes with
	// MaxRequests — the budget bounds the total, the bucket the pace.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity — how many operations may land
	// back-to-back before the rate gates. 0 with a positive Rate
	// defaults to ceil(Rate), at least 1.
	Burst int `json:"burst,omitempty"`
}

// ServerOptions tunes the HTTP front-end.
type ServerOptions struct {
	// Tenants is the access-control list; empty leaves the server open
	// (every request allowed, no quotas).
	Tenants []Tenant
	// Now supplies the clock the token buckets refill against; nil
	// means time.Now. Tests inject a virtual clock here, making
	// admit/reject sequences fully deterministic.
	Now func() time.Time
	// WatchHeartbeat is the SSE keep-alive comment interval of
	// /v1/watch; 0 means 15s.
	WatchHeartbeat time.Duration
	// PprofToken, when non-empty, registers the net/http/pprof routes
	// under /debug/pprof/, each requiring this token (Authorization
	// bearer or ?token=). Empty leaves profiling unreachable.
	PprofToken string
	// FlightLog, when non-nil, receives one postmortem record per
	// served request and is dumped by GET /debug/flightlog. The caller
	// owns the ring and typically also tails the fleet's watch stream
	// into it (flightlog.Tail).
	FlightLog *flightlog.Log
	// WAL, when non-nil, is the durable writer persisting the fleet
	// (durable.Writer implements it); /metrics then exports the WAL
	// position, segment counts, fsync latency and recovery figures.
	WAL durable.StatusSource
}

// tenantState is a Tenant plus its quota state: the spent-request
// counter of the total budget and the token bucket of the rate quota.
type tenantState struct {
	Tenant
	used atomic.Int64
	// budgetRefusals and rateRefusals count the charges each quota
	// kind turned away, for /metrics, fleet-wide /v1/stats and the
	// rmserve shutdown report. Monotone; refunds do not touch them.
	budgetRefusals atomic.Int64
	rateRefusals   atomic.Int64
	// bmu guards the bucket; the refill-then-take must be atomic.
	bmu    sync.Mutex
	tokens float64
	// last is the bucket's previous refill instant; zero means the
	// bucket is still full (it starts at Burst).
	last time.Time
}

// take reserves n tokens from the rate bucket at virtual time now,
// refilling first. The refusal leaves the bucket untouched, so a
// rejected caller does not push its own recovery further out.
func (t *tenantState) take(n int, now time.Time) error {
	if t == nil || t.Rate <= 0 || n <= 0 {
		return nil
	}
	t.bmu.Lock()
	defer t.bmu.Unlock()
	burst := float64(t.Burst)
	if t.last.IsZero() {
		t.tokens = burst
	} else if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens = math.Min(burst, t.tokens+dt*t.Rate)
	}
	t.last = now
	// An epsilon absorbs the float drift of many refills, so a tenant
	// pacing itself exactly at Rate is never spuriously refused.
	if t.tokens+1e-9 < float64(n) {
		t.rateRefusals.Add(1)
		return api.Errf(api.ErrQuotaExceeded,
			"tenant %q over rate quota: %d token(s) requested, %.3g available (rate %g/s, burst %d)",
			t.Name, n, t.tokens, t.Rate, t.Burst)
	}
	t.tokens -= float64(n)
	return nil
}

// putBack returns n tokens to the rate bucket (capped at Burst) when
// the charged operation never executed.
func (t *tenantState) putBack(n int) {
	if t == nil || t.Rate <= 0 || n <= 0 {
		return
	}
	t.bmu.Lock()
	t.tokens = math.Min(float64(t.Burst), t.tokens+float64(n))
	t.bmu.Unlock()
}

func (t *tenantState) allowed(dev int) bool {
	if len(t.Devices) == 0 {
		return true
	}
	for _, d := range t.Devices {
		if d == dev {
			return true
		}
	}
	return false
}

// chargeBudget reserves n units of the tenant's total request budget —
// one per mutating operation, so a k-item batch costs k — failing
// without partial reservation once the budget is spent. The
// check-then-add is a single atomic add with rollback, so concurrent
// requests cannot overdraw. A nil receiver (open server) is a no-op.
func (t *tenantState) chargeBudget(n int) error {
	if t == nil || t.MaxRequests <= 0 || n <= 0 {
		return nil
	}
	if t.used.Add(int64(n)) > int64(t.MaxRequests) {
		t.used.Add(int64(-n))
		t.budgetRefusals.Add(1)
		return api.Errf(api.ErrQuotaExceeded, "tenant %q spent its %d-request budget", t.Name, t.MaxRequests)
	}
	return nil
}

// charge reserves n units across both quota kinds — the total budget
// and the rate bucket — atomically: a refusal by either leaves the
// other untouched, so a refused request reserves nothing.
func (t *tenantState) charge(n int, now time.Time) error {
	if err := t.chargeBudget(n); err != nil {
		return err
	}
	if err := t.take(n, now); err != nil {
		t.refundBudget(n)
		return err
	}
	return nil
}

// refundBudget returns n reserved budget units. A nil receiver (open
// server) is a no-op.
func (t *tenantState) refundBudget(n int) {
	if t != nil && t.MaxRequests > 0 && n > 0 {
		t.used.Add(int64(-n))
	}
}

// refund returns n reserved units to both quota kinds when the
// operation never reached a device (backpressure, shutdown, bad
// address), so quotas keep meaning "mutating operations executed", not
// "attempts made". A nil receiver (open server) is a no-op.
func (t *tenantState) refund(n int) {
	t.refundBudget(n)
	t.putBack(n)
}

// refundable reports errors that should hand the budget unit back:
// operations that never executed on a device (backpressure, shutdown,
// bad address), plus bare context errors — the caller vanished before
// or while the operation ran and received nothing, so charging would
// drain budgets on disconnects. (An abandoned op may still execute on
// the device; the transport cannot observe the difference, and the
// policy errs toward the tenant.)
func refundable(err error) bool {
	if errors.Is(err, api.ErrOverloaded) || errors.Is(err, api.ErrClosed) ||
		errors.Is(err, api.ErrUnknownDevice) {
		return true
	}
	var coded *api.Error
	return !errors.As(err, &coded) &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Server serves an api.Service over JSON/HTTP.
type Server struct {
	svc     api.Service
	mux     *http.ServeMux
	tenants map[string]*tenantState
	// now is the quota clock (virtual in tests), heartbeat the SSE
	// keep-alive interval of /v1/watch.
	now       func() time.Time
	heartbeat time.Duration
	// streamStop ends every open /v1/watch stream when closed (see
	// StopStreams); streamOnce makes the close idempotent.
	streamStop chan struct{}
	streamOnce sync.Once
	// start anchors the /healthz and /metrics uptime (measured with
	// now, so virtual-clock tests stay deterministic).
	start time.Time
	// metrics is the per-route HTTP instrumentation; flight, wal and
	// pprofToken are the opt-in observability hooks (see metrics.go).
	metrics    *serverMetrics
	flight     *flightlog.Log
	wal        durable.StatusSource
	pprofToken string
}

// StopStreams ends every open /v1/watch stream (and refuses new ones
// with an immediate end-of-stream). Watch connections are in-flight
// requests that never go idle on their own, so a graceful
// http.Server.Shutdown would otherwise wait its whole deadline for
// them; call this first and Shutdown then drains only the short-lived
// requests, untouched. Idempotent.
func (s *Server) StopStreams() {
	s.streamOnce.Do(func() { close(s.streamStop) })
}

// NewServer wraps a Service (typically fleet.Service, but any
// implementation works — servers compose) in the HTTP front-end. It
// rejects tenant lists with empty or duplicate tokens — a duplicate
// would silently shadow the first tenant's device restrictions and
// quota — and with negative rate quotas. When the wrapped Service also
// implements api.WatchService, GET /v1/watch serves its event stream
// as Server-Sent Events; otherwise the route does not exist.
func NewServer(svc api.Service, opt ServerOptions) (*Server, error) {
	s := &Server{
		svc: svc, mux: http.NewServeMux(), now: opt.Now, heartbeat: opt.WatchHeartbeat,
		streamStop: make(chan struct{}), flight: opt.FlightLog, wal: opt.WAL, pprofToken: opt.PprofToken,
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.start = s.now()
	if s.heartbeat <= 0 {
		s.heartbeat = 15 * time.Second
	}
	if len(opt.Tenants) > 0 {
		if err := validateTenants(opt.Tenants); err != nil {
			return nil, err
		}
		s.tenants = make(map[string]*tenantState, len(opt.Tenants))
		for _, t := range opt.Tenants {
			if t.Rate > 0 && t.Burst <= 0 {
				t.Burst = int(math.Ceil(t.Rate))
				if t.Burst < 1 {
					t.Burst = 1
				}
			}
			s.tenants[t.Token] = &tenantState{Tenant: t}
		}
	}
	s.mux.HandleFunc("POST /v1/submit", handle(s, one, s.svc.Submit))
	s.mux.HandleFunc("POST /v1/advance", handle(s, one, s.svc.Advance))
	s.mux.HandleFunc("POST /v1/cancel", handle(s, one, s.svc.Cancel))
	// A batch spends one budget unit per item; api.SubmitBatch uses the
	// wrapped Service's native batch path when it has one and falls back
	// to sequential submission otherwise, so servers compose over any
	// Service.
	s.mux.HandleFunc("POST /v1/submit-batch", handle(s,
		func(r api.BatchSubmitRequest) int { return len(r.Items) },
		func(ctx context.Context, r api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
			return api.SubmitBatch(ctx, s.svc, r)
		}))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	routes := []string{"/v1/submit", "/v1/advance", "/v1/cancel", "/v1/submit-batch", "/v1/stats", "/healthz", "/metrics"}
	if ws, ok := svc.(api.WatchService); ok {
		s.mux.HandleFunc("GET /v1/watch", s.handleWatch(ws))
		routes = append(routes, "/v1/watch")
	}
	if s.flight != nil {
		s.mux.HandleFunc("GET /debug/flightlog", s.handleFlightlog)
		routes = append(routes, "/debug/flightlog")
	}
	if s.pprofToken != "" {
		s.pprofRoutes()
		routes = append(routes, "/debug/pprof/", "/debug/pprof/cmdline",
			"/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace")
	}
	s.metrics = newServerMetrics(routes)
	return s, nil
}

// ServeHTTP implements http.Handler: the mux behind the per-route
// instrumentation (see metrics.go).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.instrument(w, r) }

// statusOf maps taxonomy codes onto HTTP status codes.
func statusOf(code string) int {
	switch code {
	case api.CodeInfeasible:
		return http.StatusUnprocessableEntity
	case api.CodeUnknownDevice, api.CodeUnknownApp, api.CodeUnknownJob:
		return http.StatusNotFound
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeUnauthorized:
		return http.StatusUnauthorized
	case api.CodeForbidden:
		return http.StatusForbidden
	case api.CodeQuotaExceeded:
		return http.StatusTooManyRequests
	case api.CodeOverloaded, api.CodeClosed:
		return http.StatusServiceUnavailable
	case api.CodeUnavailable:
		// A routing front-end reporting a dead backend — the gateway's
		// own status, distinct from 503 (this node declining work).
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// errEnvelope is the wire form of a failed call.
type errEnvelope struct {
	Error  *api.Error `json:"error"`
	Result any        `json:"result,omitempty"`
}

// jsonContentType is the Content-Type value of every JSON response,
// shared so that setting the header does not allocate.
var jsonContentType = []string{"application/json"}

// writeJSON writes a JSON body with the given status: exactly the bytes
// json.Encoder writes (trailing newline included), through the wire
// codec when body is a hot message. A body encoding/json refuses is
// sent as the status alone, with no body.
func writeJSON[T any](w http.ResponseWriter, status int, body T) {
	w.Header()["Content-Type"] = jsonContentType
	buf := getBuf()
	defer putBuf(buf)
	if b, ok := appendWire(buf.AvailableBuffer(), any(body)); ok {
		buf.Write(append(b, '\n'))
	} else if err := json.NewEncoder(buf).Encode(body); err != nil {
		buf.Reset()
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError serialises an error chain: the first *Error in the chain
// donates the code, the full chain text the message (minus the
// sentinel's own prefix, which the client-side *Error re-adds — without
// the trim every hop would stack another "api: <code>:"). A non-nil
// partial result rides along so rejected submissions keep their
// completions.
func writeError(w http.ResponseWriter, err error, partial any) {
	code := api.ErrorCode(err)
	msg := strings.TrimPrefix(err.Error(), "api: "+code+": ")
	writeJSON(w, statusOf(code), errEnvelope{
		Error:  api.FromCode(code, msg),
		Result: partial,
	})
}

// tenantOf authenticates the request's bearer token — and nothing
// else, so it can run before any body is read. The returned tenant is
// nil on an open server.
func (s *Server) tenantOf(r *http.Request) (*tenantState, error) {
	if s.tenants == nil {
		return nil, nil
	}
	token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	t, ok := s.tenants[token]
	if !ok || token == "" {
		return nil, api.Errf(api.ErrUnauthorized, "missing or unknown bearer token")
	}
	return t, nil
}

// allow checks a tenant's device authorisation. dev < 0 means
// fleet-wide scope, which only device-unrestricted tenants may read — a
// tenant confined to some devices must not see aggregates that include
// the others. A nil tenant (open server) may do anything.
func allow(t *tenantState, dev int) error {
	if t == nil {
		return nil
	}
	if dev < 0 && len(t.Devices) > 0 {
		return api.Errf(api.ErrForbidden, "tenant %q is device-restricted; query per-device stats instead", t.Name)
	}
	if dev >= 0 && !t.allowed(dev) {
		return api.Errf(api.ErrForbidden, "tenant %q may not address device %d", t.Name, dev)
	}
	return nil
}

// maxBodyBytes bounds mutating-request payloads; the protocol messages
// are a few hundred bytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// decode reads a bounded JSON request body into *into, which must be
// zero; failures map to bad_request, except an over-limit body, which
// gets its own 413 code so clients can tell "shrink the payload" from
// "fix the JSON". The body is read whole into a pooled buffer and
// decoded by the wire codec, or by a json.Decoder with
// DisallowUnknownFields over the same bytes when the codec declines —
// so what is accepted, and what it decodes to, is encoding/json's (see
// wire.go). Reading the whole body means a client streaming bytes after
// a complete object is answered only once it finishes, or hits the
// limit.
func decode[T any](w http.ResponseWriter, r *http.Request, into *T) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := readDecode(http.MaxBytesReader(w, r.Body, maxBodyBytes), buf, into, true); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return api.Errf(api.ErrPayloadTooLarge, "body exceeds %d bytes", tooBig.Limit)
		}
		return api.Errf(api.ErrBadRequest, "undecodable payload: %v", err)
	}
	return nil
}

// settle refunds the reserved units that never executed on a device, so
// budgets count work done rather than attempts. A result exposing a
// decided-operation count (batches) keeps its executed prefix charged
// even when a later item aborted the call — the sequential fallback can
// fail mid-batch with part of the work already done.
func settle(t *tenantState, n int, res any, err error) {
	if !refundable(err) {
		return
	}
	if d, ok := res.(interface{ DecidedOps() int }); ok {
		n -= d.DecidedOps()
	}
	t.refund(n)
}

// handle builds the shared mutating-call pipeline for one service verb:
// authenticate the token (before any body work reaches the parser),
// decode the typed body, authorise the addressed device, reserve the
// budget (one unit per mutating operation the request carries — cost
// reports how many), run the call, settle the budget, and write the
// result or the error envelope (with the partial result riding along).
func handle[Req interface{ TargetDevice() int }, Res any](s *Server, cost func(Req) int, call func(context.Context, Req) (Res, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenantOf(r)
		if err != nil {
			writeError(w, err, nil)
			return
		}
		var req Req
		if err := decode(w, r, &req); err != nil {
			writeError(w, err, nil)
			return
		}
		// A negative device is not fleet-wide scope here — it is simply
		// an unknown device, and the service reports it as such (the
		// budget unit comes back via the refund rules).
		if dev := req.TargetDevice(); dev >= 0 {
			err = allow(t, dev)
		}
		n := cost(req)
		if err == nil {
			err = t.charge(n, s.now())
		}
		if err != nil {
			writeError(w, err, nil)
			return
		}
		res, err := call(r.Context(), req)
		if err != nil {
			settle(t, n, res, err)
			writeError(w, err, res)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// one is the cost function of single-operation verbs.
func one[Req any](Req) int { return 1 }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Authenticate before touching any request input, matching the
	// mutating pipeline's ordering.
	t, err := s.tenantOf(r)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	var req api.StatsRequest
	if q := r.URL.Query().Get("device"); q == "" {
		// No device parameter: fleet-wide scope, unrestricted tenants
		// only.
		if err := allow(t, -1); err != nil {
			writeError(w, err, nil)
			return
		}
	} else {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, api.Errf(api.ErrBadRequest, "device query %q: %v", q, err), nil)
			return
		}
		req.Device = &n
		// An explicit negative device is an unknown device, not
		// fleet-wide scope — skip allow (like the mutating pipeline)
		// and let the service report it uniformly.
		if n >= 0 {
			if err := allow(t, n); err != nil {
				writeError(w, err, nil)
				return
			}
		}
	}
	res, err := s.svc.Stats(r.Context(), req)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	if req.Device == nil {
		// Fleet-wide scope also reports what the transport itself turned
		// away: quota refusals never reach the service, so only this
		// layer can count them. Add, not assign — behind a router the
		// service result already carries the nodes' refusals.
		b, rate := s.QuotaRefusals()
		res.QuotaBudgetRefusals += int(b)
		res.QuotaRateRefusals += int(rate)
	}
	writeJSON(w, http.StatusOK, res)
}

// healthResult is the /healthz body: liveness plus the facts a probe
// acts on — whether the fleet answers (devices), for how long the
// daemon has been up, and, when a degradation controller is attached,
// its current mode and the deepest shard-mailbox backlog (a probe can
// pull a shedding backend out of rotation before requests bounce).
type healthResult struct {
	Status        string  `json:"status"`
	Devices       int     `json:"devices"`
	UptimeS       float64 `json:"uptime_s"`
	ControlMode   string  `json:"control_mode,omitempty"`
	MaxQueueDepth int     `json:"max_queue_depth,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	res, err := s.svc.Stats(r.Context(), api.StatsRequest{})
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			healthResult{Status: "degraded", UptimeS: s.now().Sub(s.start).Seconds()})
		return
	}
	h := healthResult{Status: "ok", Devices: res.Devices,
		UptimeS: s.now().Sub(s.start).Seconds(), ControlMode: res.ControlMode}
	// Current depth, not the lifetime high-water mark: a probe wants
	// the backlog now.
	if qd, ok := s.svc.(interface{ QueueDepths() []int }); ok {
		for _, d := range qd.QueueDepths() {
			if d > h.MaxQueueDepth {
				h.MaxQueueDepth = d
			}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// validateTenants rejects tenant lists with empty or duplicate tokens —
// a duplicate would silently shadow the first tenant's device
// restrictions and quota. It is the single source of this invariant for
// both NewServer and ReadTenantsJSON.
func validateTenants(ts []Tenant) error {
	seen := make(map[string]string, len(ts))
	for i, t := range ts {
		if t.Token == "" {
			return fmt.Errorf("httpapi: tenant %d (%q): empty token", i, t.Name)
		}
		if prev, dup := seen[t.Token]; dup {
			return fmt.Errorf("httpapi: tenants %q and %q share a token", prev, t.Name)
		}
		if t.Rate < 0 || t.Burst < 0 {
			return fmt.Errorf("httpapi: tenant %q: negative rate quota (rate %g, burst %d)", t.Name, t.Rate, t.Burst)
		}
		seen[t.Token] = t.Name
	}
	return nil
}

// ReadTenantsJSON parses a tenant list from JSON ([{"name":...,
// "token":..., "devices":[...], "max_requests":N}, ...]), validating
// that the list is non-empty and every tenant has a distinct non-empty
// token.
func ReadTenantsJSON(data []byte) ([]Tenant, error) {
	var ts []Tenant
	if err := json.Unmarshal(data, &ts); err != nil {
		return nil, fmt.Errorf("httpapi: tenants: %w", err)
	}
	if len(ts) == 0 {
		return nil, errors.New("httpapi: tenants: empty list")
	}
	if err := validateTenants(ts); err != nil {
		return nil, err
	}
	return ts, nil
}
