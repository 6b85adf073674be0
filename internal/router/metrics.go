package router

import (
	"context"
	"errors"
	"io"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/metrics"
)

// Routed operation kinds, the op label of the per-peer counters.
const (
	opSubmit  = "submit"
	opAdvance = "advance"
	opCancel  = "cancel"
	opBatch   = "submit_batch"
	opStats   = "stats"
	opWatch   = "watch"
)

// ops fixes the emission order of the op label.
var ops = []string{opSubmit, opAdvance, opCancel, opBatch, opStats, opWatch}

// errClasses fixes the bounded label set of the per-peer error
// counters: every taxonomy code, plus "canceled" for caller-ended
// contexts and "other" as the overflow class. The set is closed at the
// router — peerError folds every failure into the taxonomy first — so
// a scrape's label cardinality is peers × classes, never
// request-dependent.
var errClasses = []string{
	api.CodeInfeasible, api.CodeUnknownDevice, api.CodeUnknownApp,
	api.CodeUnknownJob, api.CodeBadRequest, api.CodePayloadTooLarge,
	api.CodeOverloaded, api.CodeQuotaExceeded, api.CodeUnauthorized,
	api.CodeForbidden, api.CodeClosed, api.CodeUnavailable,
	api.CodeInternal, "canceled", "other",
}

// peerMetrics instruments one backend: request counts per op, error
// counts per class, and the request latency histogram over the fixed
// deterministic bucket ladder.
type peerMetrics struct {
	name     string
	requests map[string]*metrics.Counter
	errors   map[string]*metrics.Counter
	latency  *metrics.Histogram
}

// routerMetrics is the router's own observability: one peerMetrics per
// backend, emitted by WriteMetrics in peer order.
type routerMetrics struct {
	peers []*peerMetrics
}

func newRouterMetrics(backends []Backend) *routerMetrics {
	m := &routerMetrics{peers: make([]*peerMetrics, len(backends))}
	for i, b := range backends {
		p := &peerMetrics{
			name:     b.Name,
			requests: make(map[string]*metrics.Counter, len(ops)),
			errors:   make(map[string]*metrics.Counter, len(errClasses)),
			latency:  metrics.NewHistogram(metrics.DefaultLatencyBuckets),
		}
		for _, op := range ops {
			p.requests[op] = new(metrics.Counter)
		}
		for _, c := range errClasses {
			p.errors[c] = new(metrics.Counter)
		}
		m.peers[i] = p
	}
	return m
}

// classOf buckets a (peerError-folded) failure into its error class:
// caller-ended contexts are "canceled" (not the peer's fault), taxonomy
// codes map to themselves, anything else is "other".
func classOf(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		if _, ok := peerErrClass[ae.Code]; ok {
			return ae.Code
		}
	}
	return "other"
}

// peerErrClass is errClasses as a set.
var peerErrClass = func() map[string]struct{} {
	s := make(map[string]struct{}, len(errClasses))
	for _, c := range errClasses {
		s[c] = struct{}{}
	}
	return s
}()

// record counts one routed call against peer p, started at start, with
// the call's (already folded) error. Recording is two atomic increments
// and a histogram observation; nothing on the routing path allocates.
func (m *routerMetrics) record(p int, op string, start time.Time, err error) {
	pm := m.peers[p]
	pm.requests[op].Inc()
	pm.latency.Observe(int64(time.Since(start)))
	if err != nil {
		pm.errors[classOf(err)].Inc()
	}
}

// WriteMetrics emits the router's own Prometheus-text families:
//
//	adaptrm_router_peers                     gauge
//	adaptrm_router_requests_total{peer,op}   counter
//	adaptrm_router_errors_total{peer,code}   counter
//	adaptrm_router_request_seconds{peer}     histogram
//
// The signature uses only stdlib types, so the HTTP layer discovers it
// by interface assertion (interface{ WriteMetrics(io.Writer) error })
// without importing this package — the same pattern as the fleet's
// QueueDepths. Zero-valued error counters are skipped; request
// counters always emit so a scrape shows every peer even when idle.
func (r *Router) WriteMetrics(w io.Writer) error {
	e := metrics.NewEmitter(w)
	e.Family("adaptrm_router_peers", "Backend nodes behind the router.", "gauge")
	e.Int("adaptrm_router_peers", int64(len(r.backends)))
	e.Family("adaptrm_router_requests_total", "Routed requests by peer and operation.", "counter")
	for _, pm := range r.metrics.peers {
		for _, op := range ops {
			e.Int("adaptrm_router_requests_total", pm.requests[op].Value(),
				metrics.L("peer", pm.name), metrics.L("op", op))
		}
	}
	e.Family("adaptrm_router_errors_total", "Failed routed requests by peer and error class.", "counter")
	for _, pm := range r.metrics.peers {
		for _, c := range errClasses {
			if v := pm.errors[c].Value(); v > 0 {
				e.Int("adaptrm_router_errors_total", v,
					metrics.L("peer", pm.name), metrics.L("code", c))
			}
		}
	}
	e.Family("adaptrm_router_request_seconds", "Routed request round-trip time by peer.", "histogram")
	for _, pm := range r.metrics.peers {
		e.Histogram("adaptrm_router_request_seconds", pm.latency.Snapshot(),
			metrics.L("peer", pm.name))
	}
	return e.Err()
}
