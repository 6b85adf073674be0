// Package router is the multi-node front-end of the fleet protocol: an
// api.Service (plus the Watch and Batch extensions) that owns a
// placement over N backend Services and routes every device-addressed
// operation to the backend owning that device. The backends are
// typically httpapi.Clients pointed at independent rmserve nodes — the
// HTTP client already is an api.Service, so the router composes over
// the wire for free — but any Service works, which is what the
// cross-topology equivalence suite exploits.
//
// Routing is stateless and deterministic: the placement (normally a
// placement.Ring shared with the operators who partitioned the fleet)
// is a pure function of its config, so every router instance, restart
// and test harness agrees on every device's owner without
// coordination. Per-device request order is preserved — a device
// always resolves to the same backend, which serialises it exactly as
// a single-node fleet shard would.
//
// Fleet-wide operations fan out. Stats queries every backend
// concurrently and merges in fixed peer order by each counter's
// declared rule (api.MergeStats), so the merge is deterministic for
// given peer snapshots. Fleet-wide watches open one stream per backend and merge
// them into a single channel; per-device ordering survives because
// each device's events all travel one stream, and cross-device
// interleaving was never guaranteed by the protocol in the first
// place. Single-device watches (including FromSeq resumes) delegate
// wholesale to the owning backend.
//
// A backend that cannot be reached surfaces as api.ErrUnavailable with
// the peer named in the message; taxonomy errors and context
// cancellation pass through untouched, so a client two hops away still
// matches errors.Is against the same sentinels it would in process.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/placement"
)

// Backend is one routed node: a service plus the name the router uses
// in error messages and metric labels (conventionally its host:port).
type Backend struct {
	Name    string
	Service api.Service
}

// Router routes the fleet protocol across backends by device placement.
type Router struct {
	backends []Backend
	place    placement.Placement
	metrics  *routerMetrics
}

var (
	_ api.Service      = (*Router)(nil)
	_ api.BatchService = (*Router)(nil)
	_ api.WatchService = (*Router)(nil)
)

// New builds a router over backends using place, whose owner count must
// equal the backend count. Nil place means placement.Ring over the
// backends with default parameters — callers partitioning a real fleet
// normally pass the explicit ring the node operators share.
func New(backends []Backend, place placement.Placement) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("router: no backends")
	}
	for i, b := range backends {
		if b.Service == nil {
			return nil, fmt.Errorf("router: backend %d (%q) has no service", i, b.Name)
		}
	}
	if place == nil {
		place = placement.MustRing(placement.RingConfig{Owners: len(backends)})
	}
	if place.Owners() != len(backends) {
		return nil, fmt.Errorf("router: placement owns %d slots, have %d backends",
			place.Owners(), len(backends))
	}
	return &Router{backends: backends, place: place, metrics: newRouterMetrics(backends)}, nil
}

// Placement exposes the router's placement, letting harnesses build a
// backend fleet partitioned by the identical mapping.
func (r *Router) Placement() placement.Placement { return r.place }

// ownerOf resolves a device to its backend index.
func (r *Router) ownerOf(device int) int { return r.place.Owner(device) }

// peerError classifies a backend call's failure. Taxonomy errors pass
// through untouched — the backend answered, its verdict stands two hops
// away exactly as it would in process. A context ending passes through
// when it is the caller's own — ctx is done, so the caller gave up and
// the peer is not to blame. Everything else is a transport failure
// (connection refused, reset mid-call, a proxy mangling the envelope, a
// peer that did not answer within the client's deadline): the peer is
// unreachable, which the taxonomy spells api.ErrUnavailable, with the
// peer named for the operator. The caller's context decides, not the
// error's shape: net/http reports its own client timeouts as errors
// matching context.DeadlineExceeded.
func (r *Router) peerError(ctx context.Context, peer int, err error) error {
	if err == nil {
		return nil
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return err
	}
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	return api.Errf(api.ErrUnavailable, "peer %s: %v", r.backends[peer].Name, err)
}

// finish folds a routed call's error into the taxonomy and records the
// call against peer p, started at start.
func (r *Router) finish(ctx context.Context, p int, op string, start time.Time, err error) error {
	err = r.peerError(ctx, p, err)
	r.metrics.record(p, op, start, err)
	return err
}

// Submit implements api.Service, delegating to the device's owner.
func (r *Router) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	p, start := r.ownerOf(req.Device), time.Now()
	res, err := r.backends[p].Service.Submit(ctx, req)
	return res, r.finish(ctx, p, opSubmit, start, err)
}

// Advance implements api.Service, delegating to the device's owner.
func (r *Router) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	p, start := r.ownerOf(req.Device), time.Now()
	res, err := r.backends[p].Service.Advance(ctx, req)
	return res, r.finish(ctx, p, opAdvance, start, err)
}

// Cancel implements api.Service, delegating to the device's owner.
func (r *Router) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	p, start := r.ownerOf(req.Device), time.Now()
	res, err := r.backends[p].Service.Cancel(ctx, req)
	return res, r.finish(ctx, p, opCancel, start, err)
}

// SubmitBatch implements api.BatchService: the whole batch addresses
// one device, so it routes like any single-device call. A backend that
// is only a plain Service decides the items sequentially through the
// api.SubmitBatch fallback — verdicts are identical either way.
func (r *Router) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	p, start := r.ownerOf(req.Device), time.Now()
	res, err := api.SubmitBatch(ctx, r.backends[p].Service, req)
	return res, r.finish(ctx, p, opBatch, start, err)
}

// Stats implements api.Service. A single-device query routes to the
// owner; the fleet-wide query fans out to every backend concurrently
// and merges the snapshots in fixed peer order (api.MergeStats), so the
// result is deterministic for given per-peer values. Any unreachable
// backend fails the merged query — a partial sum silently missing a
// node's counters would be indistinguishable from real values.
func (r *Router) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	if req.Device != nil {
		p, start := r.ownerOf(*req.Device), time.Now()
		res, err := r.backends[p].Service.Stats(ctx, req)
		return res, r.finish(ctx, p, opStats, start, err)
	}
	results := make([]api.StatsResult, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	wg.Add(len(r.backends))
	for i := range r.backends {
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			res, err := r.backends[i].Service.Stats(ctx, req)
			results[i], errs[i] = res, r.finish(ctx, i, opStats, start, err)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return api.StatsResult{}, err
		}
	}
	return api.MergeStats(results), nil
}
