package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/job"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// layer names the boundary a span was recorded at. Every span comes from
// one of this package's own wrappers around a layer's public entry
// point; nothing inside the measured packages is instrumented.
type layer uint8

const (
	layerClient   layer = iota // the load generator around its own call
	layerEdge                  // the service behind the edge httpapi server: the router
	layerNode                  // the router's call into one node's httpapi client
	layerFleet                 // fleet.Service, behind a node server or called directly
	layerSolve                 // the sched.Scheduler under the schedule cache (misses only)
	layerValidate              // schedule.Validate (suite-static)
	layerRefine                // one anytime.Refiner.TryStep after a submit reply
	numLayers
)

var layerNames = [numLayers]string{"client", "edge", "node", "fleet", "core", "schedule", "anytime"}

// parents lists, per layer, where a span's parent is looked for, nearest
// first: the span with the same key at that layer caused it.
var parents = [numLayers][]layer{
	layerEdge:     {layerClient},
	layerNode:     {layerEdge},
	layerFleet:    {layerNode, layerClient},
	layerSolve:    {layerFleet, layerClient},
	layerValidate: {layerClient},
}

type opKind uint8

const (
	opSubmit opKind = iota
	opBatch
	opAdvance
	opCancel
	opStats
	opSolve
	opValidate
	opStep // a refinement step that ran an exmem search
	opSkip // a refinement step the shared tier short-circuited
	numOps
)

var opNames = [numOps]string{"submit", "submit-batch", "advance", "cancel", "stats", "solve", "validate", "search", "skip"}

func (o opKind) admission() bool { return o == opSubmit || o == opBatch }

// noKey marks spans that belong to no device-addressed request.
const noKey = ^uint64(0)

// span is one timed interval. Spans of one request share key, which is
// device<<32 | the request's index in that device's op sequence: every
// device stream is a closed loop, so each boundary sees a device's ops in
// the same order and can number them independently.
type span struct {
	key        uint64
	start, end int64 // ns since the recorder's epoch
	layer      layer
	op         opKind
	failed     bool // the wrapped call returned an error
}

// recorder holds the spans of one traced round in memory allocated up
// front; add is wait-free so server goroutines never queue behind it.
type recorder struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) add(l layer, op opKind, key uint64, start, end time.Time, failed bool) {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		return // counted by dropped
	}
	r.spans[i] = span{key: key, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)), layer: l, op: op, failed: failed}
}

func (r *recorder) recorded() []span {
	return r.spans[:min(r.n.Load(), int64(len(r.spans)))]
}

func (r *recorder) dropped() int64 { return max(0, r.n.Load()-int64(len(r.spans))) }

// tracedService records one span per call at a service boundary.
type tracedService struct {
	inner api.Service
	rec   *recorder
	layer layer
	seq   []atomic.Uint32 // per-device ops seen at this boundary
	// inflight, when set, publishes the op index being served per device
	// so the device's tracedSched can attribute its solves to it.
	inflight []atomic.Uint32
}

func newTracedService(inner api.Service, rec *recorder, l layer, devices int) *tracedService {
	return &tracedService{inner: inner, rec: rec, layer: l, seq: make([]atomic.Uint32, devices)}
}

func (t *tracedService) key(dev int) uint64 {
	i := t.seq[dev].Add(1) - 1
	if t.inflight != nil {
		t.inflight[dev].Store(i)
	}
	return uint64(dev)<<32 | uint64(i)
}

func (t *tracedService) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	key, start := t.key(req.Device), time.Now()
	res, err := t.inner.Submit(ctx, req)
	t.rec.add(t.layer, opSubmit, key, start, time.Now(), err != nil)
	return res, err
}

func (t *tracedService) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	key, start := t.key(req.Device), time.Now()
	res, err := api.SubmitBatch(ctx, t.inner, req)
	t.rec.add(t.layer, opBatch, key, start, time.Now(), err != nil)
	return res, err
}

func (t *tracedService) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	key, start := t.key(req.Device), time.Now()
	res, err := t.inner.Advance(ctx, req)
	t.rec.add(t.layer, opAdvance, key, start, time.Now(), err != nil)
	return res, err
}

func (t *tracedService) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	key, start := t.key(req.Device), time.Now()
	res, err := t.inner.Cancel(ctx, req)
	t.rec.add(t.layer, opCancel, key, start, time.Now(), err != nil)
	return res, err
}

func (t *tracedService) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	start := time.Now()
	res, err := t.inner.Stats(ctx, req)
	t.rec.add(t.layer, opStats, noKey, start, time.Now(), err != nil)
	return res, err
}

// tracedSched records one span per solve of one device's scheduler. The
// fleet wraps it in the schedule cache, so it sees cache misses only.
type tracedSched struct {
	inner    sched.Scheduler
	rec      *recorder
	dev      int
	inflight *atomic.Uint32
}

func (t *tracedSched) Name() string { return t.inner.Name() }

func (t *tracedSched) Schedule(jobs job.Set, plat platform.Platform, now float64) (*schedule.Schedule, error) {
	start := time.Now()
	k, err := t.inner.Schedule(jobs, plat, now)
	t.rec.add(layerSolve, opSolve, uint64(t.dev)<<32|uint64(t.inflight.Load()), start, time.Now(), err != nil)
	return k, err
}

// layerTimes is what one traced round's spans say about each layer.
// Self time is a span minus the spans of the same request one layer
// down; the service-boundary figures cover admission calls only, so
// they add up to admit_p50_us.
type layerTimes struct {
	solve, validate, step, search     hist
	solves, infeasible                int64
	fleetSvc, fleetSelf               hist
	nodeHopSelf, edgeHopSelf, rtrSelf hist
	statsFanout                       hist
}

func (lt *layerTimes) merge(o *layerTimes) {
	lt.solve.merge(&o.solve)
	lt.validate.merge(&o.validate)
	lt.step.merge(&o.step)
	lt.search.merge(&o.search)
	lt.solves += o.solves
	lt.infeasible += o.infeasible
	lt.fleetSvc.merge(&o.fleetSvc)
	lt.fleetSelf.merge(&o.fleetSelf)
	lt.nodeHopSelf.merge(&o.nodeHopSelf)
	lt.edgeHopSelf.merge(&o.edgeHopSelf)
	lt.rtrSelf.merge(&o.rtrSelf)
	lt.statsFanout.merge(&o.statsFanout)
}

// request sums one request's time per layer.
type request struct {
	dur  [numLayers]int64
	seen [numLayers]bool
	op   opKind
}

func analyze(spans []span) *layerTimes {
	lt := new(layerTimes)
	reqs := make(map[uint64]*request)
	for _, s := range spans {
		d := s.end - s.start
		switch s.layer {
		case layerSolve:
			lt.solve.observe(time.Duration(d))
			lt.solves++
			if s.failed {
				lt.infeasible++
			}
		case layerValidate:
			lt.validate.observe(time.Duration(d))
		case layerRefine:
			lt.step.observe(time.Duration(d))
			if s.op == opStep {
				lt.search.observe(time.Duration(d))
			}
		case layerEdge:
			if s.op == opStats {
				lt.statsFanout.observe(time.Duration(d))
			}
		}
		if s.key == noKey {
			continue
		}
		r := reqs[s.key]
		if r == nil {
			r = new(request)
			reqs[s.key] = r
		}
		r.dur[s.layer] += d
		r.seen[s.layer] = true
		if s.layer <= layerFleet {
			r.op = s.op // every service boundary saw the same call
		}
	}
	self := func(h *hist, r *request, outer, inner layer) {
		if r.seen[outer] && r.seen[inner] {
			h.observe(time.Duration(r.dur[outer] - r.dur[inner]))
		}
	}
	for _, r := range reqs {
		if !r.op.admission() {
			continue
		}
		if r.seen[layerFleet] {
			lt.fleetSvc.observe(time.Duration(r.dur[layerFleet]))
			lt.fleetSelf.observe(time.Duration(r.dur[layerFleet] - r.dur[layerSolve]))
		}
		self(&lt.edgeHopSelf, r, layerClient, layerEdge)
		self(&lt.rtrSelf, r, layerEdge, layerNode)
		self(&lt.nodeHopSelf, r, layerNode, layerFleet)
	}
	return lt
}

// writeSpans writes the spans as JSON lines {id, parent, name, start_ns,
// end_ns, device, op}; parent is the id of the span that caused this one
// (0 for a root).
func writeSpans(path string, spans []span) error {
	ids := make(map[uint64]*[numLayers]int)
	for i, s := range spans {
		if s.key == noKey {
			continue
		}
		at := ids[s.key]
		if at == nil {
			at = new([numLayers]int)
			ids[s.key] = at
		}
		if at[s.layer] == 0 {
			at[s.layer] = i + 1
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		parent, device, op := 0, -1, -1
		if s.key != noKey {
			device, op = int(s.key>>32), int(uint32(s.key))
			for _, l := range parents[s.layer] {
				if parent = ids[s.key][l]; parent != 0 {
					break
				}
			}
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":"%s.%s","start_ns":%d,"end_ns":%d,"device":%d,"op":%d}`+"\n",
			i+1, parent, layerNames[s.layer], opNames[s.op], s.start, s.end, device, op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
