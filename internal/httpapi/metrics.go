package httpapi

import (
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/flightlog"
	"adaptrm/internal/metrics"
)

// The observability surface of the daemon, all dependency-free:
//
//	GET /metrics          Prometheus text format (hand-rolled)
//	GET /debug/flightlog  postmortem ring dump (ServerOptions.FlightLog)
//	GET /debug/pprof/...  net/http/pprof, bearer-gated (PprofToken)
//
// /metrics exports three layers in one scrape: the service counters
// (aggregate and per-device, read through api.Service.Stats at scrape
// time — the fleet already computes them, the endpoint only formats),
// operational gauges read through optional interfaces (per-shard queue
// depth), and the HTTP layer's own live counters: per-route request
// counts by status class, per-route latency histograms with the fixed
// deterministic bucket ladder of metrics.DefaultLatencyBuckets, and
// per-tenant quota-refusal counters. Recording on the request hot path
// is a counter increment plus a histogram observation — zero
// allocations, pinned by BenchmarkMetricsRecord in the CI allocs gate;
// the response-writer wrapper comes from a pool.
//
// /metrics and /healthz are intentionally unauthenticated even on a
// tenanted server: they are scraped by infrastructure, not tenants,
// and carry no per-tenant payload beyond refusal counts. Deployments
// that must hide them put the daemon behind a filtering proxy.

// routeMetrics is the live instrumentation of one mux route.
type routeMetrics struct {
	// codes counts completed requests by status class (1xx..5xx).
	codes [5]metrics.Counter
	// latency is the request service-time histogram over the fixed
	// deterministic bucket ladder.
	latency *metrics.Histogram
}

func newRouteMetrics() *routeMetrics {
	return &routeMetrics{latency: metrics.NewHistogram(metrics.DefaultLatencyBuckets)}
}

func (m *routeMetrics) record(status int, d time.Duration) {
	class := status/100 - 1
	if class < 0 || class > 4 {
		class = 4 // treat nonsense as a server error, never an index panic
	}
	m.codes[class].Inc()
	m.latency.Observe(int64(d))
}

// requests sums the route's completed requests across status classes.
func (m *routeMetrics) requests() int64 {
	var n int64
	for i := range m.codes {
		n += m.codes[i].Value()
	}
	return n
}

// serverMetrics holds the per-route instrumentation. Routes are fixed
// at construction — the label set is bounded by the mux, never by the
// client — and anything that matched no route lands in "other".
type serverMetrics struct {
	routes map[string]*routeMetrics
	order  []string // deterministic emission order
	other  *routeMetrics
}

func newServerMetrics(routes []string) *serverMetrics {
	m := &serverMetrics{routes: make(map[string]*routeMetrics, len(routes)), other: newRouteMetrics()}
	for _, r := range routes {
		if _, dup := m.routes[r]; !dup {
			m.routes[r] = newRouteMetrics()
			m.order = append(m.order, r)
		}
	}
	sort.Strings(m.order)
	return m
}

// of resolves the instrumentation bucket of a route path.
func (m *serverMetrics) of(route string) *routeMetrics {
	if rm, ok := m.routes[route]; ok {
		return rm
	}
	return m.other
}

// statusWriter captures the response status around the mux while
// passing streaming capabilities through: Flush for the SSE watch
// handler, Unwrap for http.ResponseController (read-deadline lifting).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// routeOf extracts the path part of a mux pattern ("POST /v1/submit" →
// "/v1/submit"); unmatched requests (empty pattern) map to "other".
func routeOf(pattern string) string {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == ' ' {
			return pattern[i+1:]
		}
	}
	if pattern == "" {
		return "other"
	}
	return pattern
}

// instrument is the Server.ServeHTTP body: serve through the mux with
// a pooled status-capturing writer, then record route, status class,
// and latency — and, when a flight log is attached, the postmortem
// record of the request.
func (s *Server) instrument(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := swPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.code = w, 0
	s.mux.ServeHTTP(sw, r)
	status := sw.code
	if status == 0 {
		status = http.StatusOK // handler wrote nothing; net/http sends 200
	}
	sw.ResponseWriter = nil
	swPool.Put(sw)
	elapsed := time.Since(start)
	route := routeOf(r.Pattern)
	s.metrics.of(route).record(status, elapsed)
	if s.flight != nil {
		s.flight.Append(flightlog.Record{
			Kind: flightlog.KindHTTP, Route: route, Status: status, Duration: elapsed,
		})
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. Service counters are read through api.Service.Stats at
// scrape time (aggregate, then once per device), so the exported
// values are exactly the fleet's own statistics — the equivalence test
// pins them byte-identical; the HTTP layer's live counters ride along.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	agg, err := s.svc.Stats(r.Context(), api.StatsRequest{})
	if err != nil {
		http.Error(w, "stats unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	devs := make([]api.StatsResult, 0, agg.Devices)
	for d := 0; d < agg.Devices; d++ {
		dev := d
		ds, err := s.svc.Stats(r.Context(), api.StatsRequest{Device: &dev})
		if err != nil {
			http.Error(w, fmt.Sprintf("device %d stats unavailable: %v", d, err), http.StatusServiceUnavailable)
			return
		}
		devs = append(devs, ds)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := metrics.NewEmitter(w)

	e.Family("adaptrm_uptime_seconds", "Seconds since the server was built.", "gauge")
	e.Float("adaptrm_uptime_seconds", s.now().Sub(s.start).Seconds())

	// The service families, one per api.Counters row. The unlabeled
	// sample is the fleet-wide value; device="N" samples split it.
	// Controller families appear only when the service reports a
	// controller mode — a controller-less daemon's scrape stays
	// byte-identical to a pre-control build.
	for _, c := range api.Counters {
		if c.Metric == "" || c.Is(api.Controlled) && agg.ControlMode == "" {
			continue
		}
		typ := "counter"
		if c.Is(api.Gauge) {
			typ = "gauge"
		}
		e.Family(c.Metric, c.Help, typ)
		e.Int(c.Metric, int64(c.Value(&agg)))
		if c.Is(api.PerDevice) {
			for d := range devs {
				e.Int(c.Metric, int64(c.Value(&devs[d])), metrics.L("device", strconv.Itoa(d)))
			}
		}
	}
	e.Family("adaptrm_energy_joules_total", "Energy of all executed schedule fractions.", "counter")
	e.Float("adaptrm_energy_joules_total", agg.Energy)
	for d := range devs {
		e.Float("adaptrm_energy_joules_total", devs[d].Energy, metrics.L("device", strconv.Itoa(d)))
	}
	e.Family("adaptrm_scheduler_busy_seconds_total", "Cumulative scheduler wall time.", "counter")
	e.Float("adaptrm_scheduler_busy_seconds_total", agg.SchedulingTime.Seconds())
	if agg.ControlMode != "" {
		mode, _ := api.ParseMode(agg.ControlMode)
		e.Family("adaptrm_control_mode", "Degradation tier (0 normal, 1 heuristic-only, 2 shedding).", "gauge")
		e.Int("adaptrm_control_mode", int64(mode))
	}

	// Per-shard queue depth, when the wrapped service exposes it (the
	// fleet's service view does; a plain api.Service need not).
	if qd, ok := s.svc.(interface{ QueueDepths() []int }); ok {
		e.Family("adaptrm_queue_depth", "Pending operations per shard mailbox.", "gauge")
		for i, d := range qd.QueueDepths() {
			e.Int("adaptrm_queue_depth", int64(d), metrics.L("shard", strconv.Itoa(i)))
		}
	}
	// Per-device event position, when exposed: the reference the WAL
	// append position lags behind (equal when persistence is caught up).
	if es, ok := s.svc.(interface{ DeviceEventSeqs() []uint64 }); ok {
		e.Family("adaptrm_device_event_seq", "Last event sequence emitted per device.", "gauge")
		for i, seq := range es.DeviceEventSeqs() {
			e.Int("adaptrm_device_event_seq", int64(seq), metrics.L("device", strconv.Itoa(i)))
		}
	}
	s.emitWALMetrics(e)

	// Per-tenant quota refusals, sorted by tenant name for a
	// deterministic scrape.
	e.Family("adaptrm_quota_refusals_total", "Requests refused by tenant quotas, by kind (budget or rate).", "counter")
	for _, t := range s.sortedTenants() {
		e.Int("adaptrm_quota_refusals_total", t.budgetRefusals.Load(),
			metrics.L("tenant", t.Name), metrics.L("kind", "budget"))
		e.Int("adaptrm_quota_refusals_total", t.rateRefusals.Load(),
			metrics.L("tenant", t.Name), metrics.L("kind", "rate"))
	}

	// The HTTP layer's own counters: per-route requests by status
	// class and the latency histograms (fixed deterministic buckets).
	e.Family("adaptrm_http_requests_total", "Completed HTTP requests by route and status class.", "counter")
	emitRoute := func(route string, rm *routeMetrics) {
		for class := range rm.codes {
			if v := rm.codes[class].Value(); v > 0 {
				e.Int("adaptrm_http_requests_total", v,
					metrics.L("route", route), metrics.L("code", strconv.Itoa(class+1)+"xx"))
			}
		}
	}
	for _, route := range s.metrics.order {
		emitRoute(route, s.metrics.routes[route])
	}
	emitRoute("other", s.metrics.other)
	e.Family("adaptrm_http_request_seconds", "HTTP request service time by route.", "histogram")
	for _, route := range s.metrics.order {
		e.Histogram("adaptrm_http_request_seconds", s.metrics.routes[route].latency.Snapshot(),
			metrics.L("route", route))
	}
	e.Histogram("adaptrm_http_request_seconds", s.metrics.other.latency.Snapshot(),
		metrics.L("route", "other"))

	if err := e.Err(); err != nil {
		// The connection died mid-scrape; nothing sensible left to do.
		return
	}

	// A routing service's own families (per-peer request counters,
	// error classes, latency histograms) ride along on the same scrape.
	// Discovered by interface — stdlib types only — so this package
	// never imports the router, mirroring the QueueDepths pattern.
	if rm, ok := s.svc.(interface{ WriteMetrics(io.Writer) error }); ok {
		_ = rm.WriteMetrics(w)
	}
}

// emitWALMetrics exports the durable writer's position and recovery
// figures when a WAL is attached (ServerOptions.WAL): whether this
// process recovered prior state, how much, the cumulative append and
// fsync counters with the fsync latency distribution, and the
// per-device positions — last appended sequence, newest snapshot
// sequence, segment-file count. Compare adaptrm_wal_last_seq against
// adaptrm_device_event_seq to see how far persistence trails the
// fleet.
func (s *Server) emitWALMetrics(e *metrics.Emitter) {
	if s.wal == nil {
		return
	}
	ws := s.wal.WALStatus()
	recovered := int64(0)
	if ws.Recovered {
		recovered = 1
	}
	e.Family("adaptrm_wal_recovered", "1 when this process recovered state from the data dir.", "gauge")
	e.Int("adaptrm_wal_recovered", recovered)
	e.Family("adaptrm_wal_recovered_events", "Log-tail events replayed at startup.", "gauge")
	e.Int("adaptrm_wal_recovered_events", int64(ws.RecoveredEvents))
	e.Family("adaptrm_wal_recovered_snapshots", "Devices recovered from a snapshot at startup.", "gauge")
	e.Int("adaptrm_wal_recovered_snapshots", int64(ws.RecoveredSnapshots))
	e.Family("adaptrm_wal_truncated_bytes", "Torn-tail bytes physically removed at startup.", "gauge")
	e.Int("adaptrm_wal_truncated_bytes", ws.TruncatedBytes)
	e.Family("adaptrm_wal_appended_total", "Events appended to the log since start.", "counter")
	e.Int("adaptrm_wal_appended_total", ws.Appended)
	e.Family("adaptrm_wal_fsync_total", "Segment fsync calls since start.", "counter")
	e.Int("adaptrm_wal_fsync_total", ws.Fsyncs)
	e.Family("adaptrm_wal_snapshots_total", "Snapshots written since start.", "counter")
	e.Int("adaptrm_wal_snapshots_total", ws.Snapshots)
	e.Family("adaptrm_wal_rescues_total", "Lag rescues (watch overruns absorbed by a snapshot) since start.", "counter")
	e.Int("adaptrm_wal_rescues_total", ws.Rescues)
	e.Family("adaptrm_wal_last_seq", "Last event sequence appended to the log per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_last_seq", int64(d.LastSeq), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_snapshot_seq", "Newest on-disk snapshot sequence per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_snapshot_seq", int64(d.SnapshotSeq), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_segments", "Segment files on disk per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_segments", int64(d.Segments), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_fsync_seconds", "Segment fsync latency.", "histogram")
	e.Histogram("adaptrm_wal_fsync_seconds", ws.FsyncLatency)
}

// sortedTenants returns the tenant states ordered by name (ties by
// token order are impossible — names may repeat, so fall back to token
// for a total order).
func (s *Server) sortedTenants() []*tenantState {
	out := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Token < out[j].Token
	})
	return out
}

// QuotaRefusals sums the per-tenant quota-refusal counters: requests
// turned away for an exhausted total budget and for an empty rate
// bucket. rmserve prints them in its shutdown report.
func (s *Server) QuotaRefusals() (budget, rate int64) {
	for _, t := range s.tenants {
		budget += t.budgetRefusals.Load()
		rate += t.rateRefusals.Load()
	}
	return budget, rate
}

// handleFlightlog serves GET /debug/flightlog: the newest n records of
// the postmortem ring as JSON (?n=, default all retained). On a
// tenanted server it is scoped like fleet-wide stats — authenticated,
// device-unrestricted tenants only — since the ring spans every device.
func (s *Server) handleFlightlog(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	if err := allow(t, -1); err != nil {
		writeError(w, err, nil)
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, api.Errf(api.ErrBadRequest, "n query %q", q), nil)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.flight.WriteJSON(w, n)
}

// pprofRoutes registers the net/http/pprof handlers behind the token
// gate. The index route serves the named profiles (heap, goroutine,
// block, ...) as subpaths.
func (s *Server) pprofRoutes() {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			tok := bearerOrQueryToken(r)
			if subtle.ConstantTimeCompare([]byte(tok), []byte(s.pprofToken)) != 1 {
				writeError(w, api.Errf(api.ErrUnauthorized, "profiling requires the pprof token"), nil)
				return
			}
			// CPU profiles and traces run for many seconds; a daemon's
			// read timeout must not sever them (same lift as /v1/watch).
			_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
			h(w, r)
		}
	}
	s.mux.HandleFunc("GET /debug/pprof/", gate(pprof.Index))
	s.mux.HandleFunc("GET /debug/pprof/cmdline", gate(pprof.Cmdline))
	s.mux.HandleFunc("GET /debug/pprof/profile", gate(pprof.Profile))
	s.mux.HandleFunc("GET /debug/pprof/symbol", gate(pprof.Symbol))
	s.mux.HandleFunc("POST /debug/pprof/symbol", gate(pprof.Symbol))
	s.mux.HandleFunc("GET /debug/pprof/trace", gate(pprof.Trace))
}

// bearerOrQueryToken extracts the pprof credential: the Authorization
// bearer token, or ?token= for tools that cannot set headers (go tool
// pprof URLs).
func bearerOrQueryToken(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); len(auth) > len("Bearer ") && auth[:len("Bearer ")] == "Bearer " {
		return auth[len("Bearer "):]
	}
	return r.URL.Query().Get("token")
}
