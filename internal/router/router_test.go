package router_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/placement"
	"adaptrm/internal/router"
	"adaptrm/internal/workload"
)

var bg = context.Background()

// newFleet builds a motivational-platform fleet with one MMKP-MDF
// scheduler per device and registers its teardown.
func newFleet(t testing.TB, devices int, opt fleet.Options) *fleet.Fleet {
	t.Helper()
	devs := make([]fleet.DeviceConfig, devices)
	for i := range devs {
		devs[i] = fleet.DeviceConfig{
			Platform:  motiv.Platform(),
			Library:   motiv.Library(),
			Scheduler: core.New(),
		}
	}
	f, err := fleet.New(devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// overHTTP serves svc through a live httptest daemon and returns the
// typed client view — the shape of a real routed deployment, where each
// backend is an rmserve node reached over the wire.
func overHTTP(t testing.TB, svc api.Service) *httpapi.Client {
	t.Helper()
	s, err := httpapi.NewServer(svc, httpapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return httpapi.NewClient(ts.URL, "", ts.Client())
}

// mustRouter builds a router or fails the test.
func mustRouter(t testing.TB, backends []router.Backend, place placement.Placement) *router.Router {
	t.Helper()
	rt, err := router.New(backends, place)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// collect subscribes to one device's event stream and drains it in the
// background; the returned function blocks until the stream closes and
// yields everything received. Draining concurrently keeps the harness
// from ever back-pressuring the stream under test.
func collect(t *testing.T, ws api.WatchService, device int) func() []api.Event {
	t.Helper()
	dev := device
	ch, err := ws.Watch(bg, api.WatchRequest{Device: &dev, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []api.Event, 1)
	go func() {
		var evs []api.Event
		for ev := range ch {
			evs = append(evs, ev)
		}
		done <- evs
	}()
	return func() []api.Event { return <-done }
}

// outcome is the observable result of one protocol interaction,
// comparable across topologies.
type outcome struct {
	Kind        string
	Accepted    bool
	JobID       int
	Completions int
	ErrCode     string
}

func codeOf(err error) string {
	if err == nil {
		return ""
	}
	return api.ErrorCode(err)
}

// drive replays a deterministic interaction script — the seeded trace
// with interleaved advances, a submit+cancel epilogue, and a mixed
// batch per device — against a Service and records every observable
// result.
func drive(t *testing.T, svc api.Service, trace []workload.FleetRequest, devices int, horizon float64) ([]outcome, api.StatsResult) {
	t.Helper()
	var log []outcome
	for i, r := range trace {
		if i%5 == 4 {
			adv, err := svc.Advance(bg, api.AdvanceRequest{Device: r.Device, To: r.At})
			log = append(log, outcome{Kind: "advance", Completions: len(adv.Completions), ErrCode: codeOf(err)})
		}
		res, err := svc.Submit(bg, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
		if err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatalf("entry %d (%+v): %v", i, r, err)
		}
		log = append(log, outcome{
			Kind: "submit", Accepted: res.Accepted, JobID: res.JobID,
			Completions: len(res.Completions), ErrCode: codeOf(err),
		})
	}
	for d := 0; d < devices; d++ {
		at := horizon + 10
		res, err := svc.Submit(bg, api.SubmitRequest{Device: d, At: at, App: "lambda2", Deadline: at + 8})
		log = append(log, outcome{
			Kind: "submit", Accepted: res.Accepted, JobID: res.JobID,
			Completions: len(res.Completions), ErrCode: codeOf(err),
		})
		if err == nil && res.Accepted {
			cr, cerr := svc.Cancel(bg, api.CancelRequest{Device: d, JobID: res.JobID})
			log = append(log, outcome{Kind: "cancel", Accepted: cr.Cancelled, JobID: res.JobID, ErrCode: codeOf(cerr)})
		}
		// A same-time batch with a generous and a tight deadline, so the
		// batch path crosses the router with mixed verdicts possible.
		at = horizon + 20
		br, berr := api.SubmitBatch(bg, svc, api.BatchSubmitRequest{
			Device: d, At: at,
			Items: []api.BatchItem{
				{App: "lambda1", Deadline: at + 9},
				{App: "lambda1", Deadline: at + 9.5},
			},
		})
		if berr != nil {
			t.Fatalf("batch device %d: %v", d, berr)
		}
		for _, v := range br.Verdicts {
			code := ""
			if v.Error != nil {
				code = v.Error.Code
			}
			log = append(log, outcome{Kind: "batch", Accepted: v.Accepted, JobID: v.JobID, ErrCode: code})
		}
	}
	st, err := svc.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	return log, st
}

// TestCrossTopologyEquivalence is the acceptance gate of the routing
// layer: the same seeded trace driven against one in-process fleet and
// against a router over two HTTP nodes partitioned by the same ring
// must yield identical verdicts, job ids, merged statistics and
// per-device watch event logs.
func TestCrossTopologyEquivalence(t *testing.T) {
	const devices = 4
	const nodes = 2
	const horizon = 120.0
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: horizon, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := placement.MustRing(placement.RingConfig{Owners: nodes, Seed: 42})
	owned := make([]int, nodes)
	for d := 0; d < devices; d++ {
		owned[ring.Owner(d)]++
	}
	for n, c := range owned {
		if c == 0 {
			t.Fatalf("node %d owns no device under seed 42 — tune the ring seed", n)
		}
	}
	opt := fleet.Options{Shards: 2, Cache: true}

	// Topology A: one in-process fleet, default modulo placement.
	inproc := newFleet(t, devices, opt)
	aWait := make([]func() []api.Event, devices)
	for d := 0; d < devices; d++ {
		aWait[d] = collect(t, inproc.Service(), d)
	}
	aLog, aStats := drive(t, inproc.Service(), trace, devices, horizon)
	aDev := make([]api.StatsResult, devices)
	for d := 0; d < devices; d++ {
		dev := d
		if aDev[d], err = inproc.Service().Stats(bg, api.StatsRequest{Device: &dev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := inproc.Close(); err != nil {
		t.Fatal(err)
	}

	// Topology B: the router over two HTTP nodes sharing the ring. Every
	// node hosts the full device space; the ring partitions traffic.
	backFleets := make([]*fleet.Fleet, nodes)
	backends := make([]router.Backend, nodes)
	for n := 0; n < nodes; n++ {
		backFleets[n] = newFleet(t, devices, opt)
		backends[n] = router.Backend{Name: fmt.Sprintf("node%d", n), Service: overHTTP(t, backFleets[n].Service())}
	}
	rt := mustRouter(t, backends, ring)
	bWait := make([]func() []api.Event, devices)
	for d := 0; d < devices; d++ {
		bWait[d] = collect(t, rt, d)
	}
	bLog, bStats := drive(t, rt, trace, devices, horizon)
	bDev := make([]api.StatsResult, devices)
	for d := 0; d < devices; d++ {
		dev := d
		if bDev[d], err = rt.Stats(bg, api.StatsRequest{Device: &dev}); err != nil {
			t.Fatal(err)
		}
	}
	// The merge must reconstruct the plain per-node sum, and the traffic
	// must really have split across both nodes.
	var nodeSubmitted int
	for n, f := range backFleets {
		ns := f.Stats()
		if ns.Submitted == 0 {
			t.Errorf("node %d received no traffic", n)
		}
		nodeSubmitted += ns.Submitted
	}
	if nodeSubmitted != bStats.Submitted {
		t.Errorf("merged Submitted %d != per-node sum %d", bStats.Submitted, nodeSubmitted)
	}
	for _, f := range backFleets {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Interaction logs: identical, entry by entry.
	if len(aLog) != len(bLog) {
		t.Fatalf("interaction counts differ: %d vs %d", len(aLog), len(bLog))
	}
	for i := range aLog {
		if aLog[i] != bLog[i] {
			t.Errorf("interaction %d diverged:\nin-process %+v\nrouted     %+v", i, aLog[i], bLog[i])
		}
	}
	// The run must exercise both verdicts to mean anything.
	if aStats.Accepted == 0 || aStats.Rejected == 0 {
		t.Fatalf("trace too easy or too hard (accepted %d, rejected %d) — tune parameters",
			aStats.Accepted, aStats.Rejected)
	}

	// Fleet-wide statistics: counters exactly equal; the energy total is
	// compared within float tolerance, because the router sums per-node
	// subtotals while the single fleet sums devices in index order —
	// same values, different association.
	aDet, bDet := aStats.Deterministic(), bStats.Deterministic()
	if relDiff(aDet.Energy, bDet.Energy) > 1e-12 {
		t.Errorf("fleet energy diverged beyond tolerance: %v vs %v", aDet.Energy, bDet.Energy)
	}
	aDet.Energy, bDet.Energy = 0, 0
	if aDet != bDet {
		t.Errorf("fleet stats diverged:\nin-process %+v\nrouted     %+v", aDet, bDet)
	}

	// Per-device statistics route to the owner and must be bit-identical
	// — a device's history lives on exactly one node.
	for d := 0; d < devices; d++ {
		if a, b := aDev[d].Deterministic(), bDev[d].Deterministic(); a != b {
			t.Errorf("device %d stats diverged:\nin-process %+v\nrouted     %+v", d, a, b)
		}
	}

	// Per-device event logs: identical sequences, and no Lagged markers
	// (the harness drains continuously).
	for d := 0; d < devices; d++ {
		a, b := aWait[d](), bWait[d]()
		if len(a) != len(b) {
			t.Errorf("device %d event counts differ: %d vs %d", d, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("device %d event %d diverged:\nin-process %+v\nrouted     %+v", d, i, a[i], b[i])
			}
			if a[i].Type == api.EventLagged || b[i].Type == api.EventLagged {
				t.Errorf("device %d event %d lagged — harness buffer too small", d, i)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestRouterRoutesByPlacement pins that traffic lands exactly on the
// placement's owner: after one submit per device, each backend fleet
// has counted precisely its owned devices and nothing else.
func TestRouterRoutesByPlacement(t *testing.T) {
	const devices = 8
	const nodes = 2
	ring := placement.MustRing(placement.RingConfig{Owners: nodes, Seed: 1})
	fleets := make([]*fleet.Fleet, nodes)
	backends := make([]router.Backend, nodes)
	for n := 0; n < nodes; n++ {
		fleets[n] = newFleet(t, devices, fleet.Options{})
		t.Cleanup(func() { _ = fleets[n].Close() })
		backends[n] = router.Backend{Name: fmt.Sprintf("node%d", n), Service: fleets[n].Service()}
	}
	rt := mustRouter(t, backends, ring)

	for d := 0; d < devices; d++ {
		if _, err := rt.Submit(bg, api.SubmitRequest{Device: d, At: 0, App: "lambda1", Deadline: 9}); err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatalf("device %d: %v", d, err)
		}
	}
	for n := 0; n < nodes; n++ {
		for d := 0; d < devices; d++ {
			dev := d
			st, err := fleets[n].Service().Stats(bg, api.StatsRequest{Device: &dev})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if ring.Owner(d) == n {
				want = 1
			}
			if st.Submitted != want {
				t.Errorf("node %d device %d: submitted %d, want %d", n, d, st.Submitted, want)
			}
		}
	}
}

// TestRouterUnavailable covers the transport-failure mapping: a dead
// peer surfaces as api.ErrUnavailable naming the peer, while devices
// owned by live peers keep working.
func TestRouterUnavailable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadClient := httpapi.NewClient(dead.URL, "", nil)
	dead.Close() // now every dial is refused

	live := newFleet(t, 2, fleet.Options{})
	t.Cleanup(func() { _ = live.Close() })

	// Modulo placement: device 0 → dead peer, device 1 → live peer.
	rt := mustRouter(t, []router.Backend{
		{Name: "dead-node", Service: deadClient},
		{Name: "live-node", Service: live.Service()},
	}, placement.Modulo(2))

	_, err := rt.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("submit to dead peer: %v, want ErrUnavailable", err)
	}
	if err == nil || !strings.Contains(err.Error(), "dead-node") {
		t.Errorf("error does not name the peer: %v", err)
	}
	if r, err := rt.Submit(bg, api.SubmitRequest{Device: 1, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
		t.Errorf("submit to live peer: %+v, %v", r, err)
	}

	// Fleet-wide stats refuse rather than return a partial sum.
	if _, err := rt.Stats(bg, api.StatsRequest{}); !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("fleet stats with dead peer: %v, want ErrUnavailable", err)
	}
	d1 := 1
	if _, err := rt.Stats(bg, api.StatsRequest{Device: &d1}); err != nil {
		t.Errorf("device stats on live peer: %v", err)
	}

	// Watches: the dead owner refuses; fleet-wide needs every stream.
	d0 := 0
	if _, err := rt.Watch(bg, api.WatchRequest{Device: &d0}); !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("watch on dead peer: %v, want ErrUnavailable", err)
	}
	if _, err := rt.Watch(bg, api.WatchRequest{}); !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("fleet watch with dead peer: %v, want ErrUnavailable", err)
	}
	ctx, cancel := context.WithCancel(bg)
	ch, err := rt.Watch(ctx, api.WatchRequest{Device: &d1})
	if err != nil {
		t.Fatalf("watch on live peer: %v", err)
	}
	cancel()
	for range ch { // must close promptly after cancellation
	}
}

// errService returns a canned error from every method.
type errService struct{ err error }

func (s errService) Submit(context.Context, api.SubmitRequest) (api.SubmitResult, error) {
	return api.SubmitResult{}, s.err
}
func (s errService) Advance(context.Context, api.AdvanceRequest) (api.AdvanceResult, error) {
	return api.AdvanceResult{}, s.err
}
func (s errService) Cancel(context.Context, api.CancelRequest) (api.CancelResult, error) {
	return api.CancelResult{}, s.err
}
func (s errService) Stats(context.Context, api.StatsRequest) (api.StatsResult, error) {
	return api.StatsResult{}, s.err
}

// TestRouterPassesThroughVerdicts: taxonomy errors and the caller's own
// context endings cross the router untouched — only transport failures
// are rewritten. A context error the caller did not cause (the peer's
// client gave up on its own deadline) is a transport failure.
func TestRouterPassesThroughVerdicts(t *testing.T) {
	rt := mustRouter(t, []router.Backend{
		{Name: "verdict", Service: errService{err: api.Errf(api.ErrInfeasible, "no slack")}},
		{Name: "hungup", Service: errService{err: context.Canceled}},
	}, placement.Modulo(2))

	_, err := rt.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "x", Deadline: 1})
	if !errors.Is(err, api.ErrInfeasible) || errors.Is(err, api.ErrUnavailable) {
		t.Errorf("taxonomy error rewritten: %v", err)
	}
	gone, cancel := context.WithCancel(bg)
	cancel()
	_, err = rt.Submit(gone, api.SubmitRequest{Device: 1, At: 0, App: "x", Deadline: 1})
	if !errors.Is(err, context.Canceled) || errors.Is(err, api.ErrUnavailable) {
		t.Errorf("caller's context ending rewritten: %v", err)
	}
	_, err = rt.Submit(bg, api.SubmitRequest{Device: 1, At: 0, App: "x", Deadline: 1})
	if !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("peer's own context error with a live caller: %v, want ErrUnavailable", err)
	}
}

// hungListener accepts connections and never answers on them: a peer
// that hangs rather than dies.
func hungListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return "http://" + ln.Addr().String()
}

// TestRouterPeerTimeout: a peer that accepts the connection and never
// answers costs a routed call its peer client's deadline, and then
// surfaces as ErrUnavailable — HTTP 502 one hop further out — instead
// of hanging the call, or escaping as a bare context error the caller
// never caused. The same deadline never cuts a healthy peer's watch
// stream.
func TestRouterPeerTimeout(t *testing.T) {
	const deadline = 200 * time.Millisecond
	hung := httpapi.NewClient(hungListener(t), "", httpapi.NewPeerHTTPClient(deadline))
	rt := mustRouter(t, []router.Backend{{Name: "hung-node", Service: hung}}, placement.Modulo(1))

	start := time.Now()
	_, err := rt.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrUnavailable) || !strings.Contains(err.Error(), "hung-node") {
		t.Errorf("submit to hung peer: %v, want ErrUnavailable naming the peer", err)
	}
	if took := time.Since(start); took > 10*deadline {
		t.Errorf("submit to hung peer took %v, deadline %v", took, deadline)
	}
	if _, err := rt.Stats(bg, api.StatsRequest{}); !errors.Is(err, api.ErrUnavailable) {
		t.Errorf("fleet stats with hung peer: %v, want ErrUnavailable", err)
	}

	s, err := httpapi.NewServer(rt, httpapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edge := httptest.NewServer(s)
	t.Cleanup(edge.Close)
	resp, err := http.Post(edge.URL+"/v1/cancel", "application/json", strings.NewReader(`{"device":0,"job_id":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("routed cancel to hung peer: HTTP %d, want 502", resp.StatusCode)
	}

	f := newFleet(t, 1, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	ns, err := httpapi.NewServer(f.Service(), httpapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(ns)
	t.Cleanup(node.Close)
	live := mustRouter(t, []router.Backend{{Name: "live-node",
		Service: httpapi.NewClient(node.URL, "", httpapi.NewPeerHTTPClient(deadline))}}, placement.Modulo(1))
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ch, err := live.Watch(ctx, api.WatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * deadline)
	if _, err := live.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if ev, ok := <-ch; !ok || ev.Type != api.EventJobAdmitted {
		t.Errorf("watch past the peer deadline: %+v (open %v), want the admission", ev, ok)
	}
}

// TestRouterCallerCancelPassesThrough: against the same hung peer, the
// caller's own cancellation or deadline ends the call first and comes
// back as itself, not as the peer's fault.
func TestRouterCallerCancelPassesThrough(t *testing.T) {
	hung := httpapi.NewClient(hungListener(t), "", &http.Client{Timeout: time.Minute})
	rt := mustRouter(t, []router.Backend{{Name: "hung-node", Service: hung}}, placement.Modulo(1))

	ctx, cancel := context.WithCancel(bg)
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := rt.Submit(ctx, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, context.Canceled) || errors.Is(err, api.ErrUnavailable) {
		t.Errorf("cancelled submit: %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if _, err := rt.Advance(ctx, api.AdvanceRequest{Device: 0, To: 1}); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, api.ErrUnavailable) {
		t.Errorf("advance past the caller's deadline: %v, want context.DeadlineExceeded", err)
	}
}

// partialService rejects every submit but still reports completions —
// the partial result that must survive any number of hops.
type partialService struct{ errService }

func (partialService) Submit(context.Context, api.SubmitRequest) (api.SubmitResult, error) {
	return api.SubmitResult{Completions: []api.Completion{{JobID: 7, At: 3.5}}},
		api.Errf(api.ErrInfeasible, "device busy")
}

// twoHop builds client → router → node, both hops over live HTTP, and
// returns the outermost client.
func twoHop(t *testing.T, node api.Service) *httpapi.Client {
	t.Helper()
	inner := overHTTP(t, node)
	rt := mustRouter(t, []router.Backend{{Name: "node0", Service: inner}}, placement.Modulo(1))
	return overHTTP(t, rt)
}

// TestTwoHopErrorTaxonomy drives every taxonomy sentinel through two
// real HTTP hops — client → router → node — and asserts the sentinel
// still matches under errors.Is on every verb, with no spurious
// ErrUnavailable wrapping.
func TestTwoHopErrorTaxonomy(t *testing.T) {
	sentinels := []*api.Error{
		api.ErrInfeasible, api.ErrUnknownDevice, api.ErrUnknownApp,
		api.ErrUnknownJob, api.ErrBadRequest, api.ErrPayloadTooLarge,
		api.ErrOverloaded, api.ErrQuotaExceeded, api.ErrUnauthorized,
		api.ErrForbidden, api.ErrClosed, api.ErrUnavailable, api.ErrInternal,
	}
	for _, s := range sentinels {
		t.Run(s.Code, func(t *testing.T) {
			client := twoHop(t, errService{err: api.Errf(s, "detail %d", 42)})
			if _, err := client.Submit(bg, api.SubmitRequest{}); !errors.Is(err, s) {
				t.Errorf("submit: %v, want %v", err, s)
			}
			if _, err := client.Advance(bg, api.AdvanceRequest{}); !errors.Is(err, s) {
				t.Errorf("advance: %v, want %v", err, s)
			}
			if _, err := client.Cancel(bg, api.CancelRequest{}); !errors.Is(err, s) {
				t.Errorf("cancel: %v, want %v", err, s)
			}
			d := 0
			if _, err := client.Stats(bg, api.StatsRequest{Device: &d}); !errors.Is(err, s) {
				t.Errorf("stats: %v, want %v", err, s)
			}
			if s != api.ErrUnavailable {
				if _, err := client.Submit(bg, api.SubmitRequest{}); errors.Is(err, api.ErrUnavailable) {
					t.Errorf("submit wrapped as unavailable: %v", err)
				}
			}
		})
	}
}

// TestTwoHopPartialResult: a rejection's partial result (the
// completions that happened while advancing to the arrival time) rides
// the error envelope across both hops.
func TestTwoHopPartialResult(t *testing.T) {
	client := twoHop(t, partialService{})
	res, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 4, App: "x", Deadline: 9})
	if !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if len(res.Completions) != 1 || res.Completions[0].JobID != 7 || res.Completions[0].At != 3.5 {
		t.Errorf("partial result lost across hops: %+v", res.Completions)
	}
}

// TestRouterWatchResumeDelegates: a FromSeq resume through the router
// replays the owning node's retention window exactly as an in-process
// resume would — same events, same sequence numbers, gap-free.
func TestRouterWatchResumeDelegates(t *testing.T) {
	const devices = 2
	const dev = 1 // Modulo(2): owned by peer 1
	script := func(t *testing.T, svc api.Service) {
		t.Helper()
		if _, err := svc.Submit(bg, api.SubmitRequest{Device: dev, At: 0, App: "lambda1", Deadline: 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Advance(bg, api.AdvanceRequest{Device: dev, To: 50}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(bg, api.SubmitRequest{Device: dev, At: 50, App: "lambda2", Deadline: 60}); err != nil {
			t.Fatal(err)
		}
	}
	// resume opens a FromSeq-1 subscription, then cancels the live job
	// as a terminator and reads up to its cancellation event — a
	// deterministic cut through an otherwise open-ended stream.
	resume := func(t *testing.T, ws api.WatchService, cancelID int) []api.Event {
		t.Helper()
		ctx, cancel := context.WithCancel(bg)
		d := dev
		ch, err := ws.Watch(ctx, api.WatchRequest{Device: &d, FromSeq: 1, Buffer: 4096})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Release the subscription afterwards, or the SSE connection
		// would pin the httptest server open past the test body.
		defer func() {
			cancel()
			for range ch {
			}
		}()
		if _, err := ws.Cancel(bg, api.CancelRequest{Device: dev, JobID: cancelID}); err != nil {
			t.Fatal(err)
		}
		var evs []api.Event
		for ev := range ch {
			evs = append(evs, ev)
			if ev.Type == api.EventJobCancelled && ev.JobID == cancelID {
				return evs
			}
		}
		t.Fatal("stream closed before the terminator event")
		return nil
	}

	control := newFleet(t, devices, fleet.Options{})
	t.Cleanup(func() { _ = control.Close() })
	script(t, control.Service())

	fleets := make([]*fleet.Fleet, 2)
	backends := make([]router.Backend, 2)
	for n := range fleets {
		fleets[n] = newFleet(t, devices, fleet.Options{})
		t.Cleanup(func() { _ = fleets[n].Close() })
		backends[n] = router.Backend{Name: fmt.Sprintf("node%d", n), Service: overHTTP(t, fleets[n].Service())}
	}
	rt := mustRouter(t, backends, placement.Modulo(2))
	script(t, rt)

	// The second submit's job id is deterministic; read it back from the
	// control run by cancelling what is active there.
	want := resume(t, control.Service(), 2)
	got := resume(t, rt, 2)
	if len(want) != len(got) {
		t.Fatalf("resume logs differ in length: %d vs %d\nin-process %+v\nrouted     %+v", len(want), len(got), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("resume event %d diverged:\nin-process %+v\nrouted     %+v", i, want[i], got[i])
		}
	}
	if want[0].Seq != 1 {
		t.Errorf("resume did not start at seq 1: %+v", want[0])
	}
}

// TestRouterMetricsExport: the router's per-peer counters surface on a
// front-end daemon's /metrics through the same interface discovery the
// fleet gauges use.
func TestRouterMetricsExport(t *testing.T) {
	f := newFleet(t, 2, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	rt := mustRouter(t, []router.Backend{{Name: "node0", Service: overHTTP(t, f.Service())}}, placement.Modulo(1))

	s, err := httpapi.NewServer(rt, httpapi.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if _, err := rt.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(bg, api.SubmitRequest{Device: 1, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Stats(bg, api.StatsRequest{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"adaptrm_router_peers 1",
		`adaptrm_router_requests_total{peer="node0",op="submit"} 2`,
		// The /metrics handler itself queries Stats for the fleet gauges,
		// so only presence is pinned, not an exact count.
		`adaptrm_router_requests_total{peer="node0",op="stats"}`,
		`adaptrm_router_request_seconds_bucket{peer="node0",`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// statsService is a healthy stub that only answers Stats, with a canned
// snapshot — the merge inputs of a routed fleet.
type statsService struct{ res api.StatsResult }

func (s statsService) Submit(context.Context, api.SubmitRequest) (api.SubmitResult, error) {
	return api.SubmitResult{}, nil
}
func (s statsService) Advance(context.Context, api.AdvanceRequest) (api.AdvanceResult, error) {
	return api.AdvanceResult{}, nil
}
func (s statsService) Cancel(context.Context, api.CancelRequest) (api.CancelResult, error) {
	return api.CancelResult{}, nil
}
func (s statsService) Stats(context.Context, api.StatsRequest) (api.StatsResult, error) {
	return s.res, nil
}

// TestRouterSheddingBackend pins the routed face of graceful
// degradation: a backend in shedding mode answers ErrOverloaded, which
// must cross the router (and a real HTTP hop) as the taxonomy verdict
// it is — not be rewritten into a transport 502/unavailable — and the
// per-peer error metrics must count it under its own class.
func TestRouterSheddingBackend(t *testing.T) {
	shedding := errService{err: api.Errf(api.ErrOverloaded, "device 0: shedding load")}
	rt := mustRouter(t, []router.Backend{
		{Name: "shed-node", Service: overHTTP(t, shedding)},
	}, placement.Modulo(1))

	_, err := rt.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("submit via shedding backend: %v, want ErrOverloaded", err)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
		t.Fatalf("error lost its taxonomy code: %v", err)
	}
	if errors.Is(err, api.ErrUnavailable) {
		t.Fatal("overloaded verdict rewritten as unavailable")
	}

	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `adaptrm_router_errors_total{peer="shed-node",code="overloaded"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("router metrics missing %q in:\n%s", want, sb.String())
	}
}

// TestRouterMergesControlMode: the fleet-wide stats merge sums shed and
// controller counters and reports the worst degradation tier across the
// backends, so a probe on the merged view sees a single shedding node.
func TestRouterMergesControlMode(t *testing.T) {
	rt := mustRouter(t, []router.Backend{
		{Name: "calm", Service: statsService{res: api.StatsResult{
			Devices: 2, ControlMode: "normal", ControlTicks: 10,
		}}},
		{Name: "hot", Service: statsService{res: api.StatsResult{
			Devices: 2, ControlMode: "shedding", Shed: 7, ControlTicks: 9, ControlModeChanges: 2,
		}}},
	}, placement.Modulo(2))

	res, err := rt.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlMode != "shedding" {
		t.Errorf("merged mode = %q, want the worst tier (shedding)", res.ControlMode)
	}
	if res.Shed != 7 || res.ControlTicks != 19 || res.ControlModeChanges != 2 {
		t.Errorf("merged control counters: shed %d ticks %d changes %d, want 7/19/2",
			res.Shed, res.ControlTicks, res.ControlModeChanges)
	}
}

// TestRoutedStatsKeepsNodeQuotaRefusals: a node's quota refusals reach
// the fleet-wide stats of the edge in front of the router. The nodes
// admit the router under a peer token with a one-request budget; the
// second submit to the same node is refused there, not at the edge,
// and the edge must add its own (zero) refusals to the merged count
// instead of overwriting it.
func TestRoutedStatsKeepsNodeQuotaRefusals(t *testing.T) {
	const devices = 2
	backends := make([]router.Backend, devices)
	for i := range backends {
		f := newFleet(t, devices, fleet.Options{})
		t.Cleanup(func() { _ = f.Close() })
		s, err := httpapi.NewServer(f.Service(), httpapi.ServerOptions{
			Tenants: []httpapi.Tenant{{Name: "peer", Token: "peer-token", MaxRequests: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		backends[i] = router.Backend{Name: fmt.Sprintf("node%d", i), Service: httpapi.NewClient(ts.URL, "peer-token", ts.Client())}
	}
	edge := overHTTP(t, mustRouter(t, backends, placement.Modulo(devices)))

	if _, err := edge.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Submit(bg, api.SubmitRequest{Device: 0, At: 1, App: "lambda1", Deadline: 9}); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Fatalf("second submit to node0: %v, want ErrQuotaExceeded", err)
	}
	st, err := edge.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.QuotaBudgetRefusals != 1 || st.QuotaRateRefusals != 0 {
		t.Errorf("edge quota refusals = budget %d, rate %d; want 1, 0", st.QuotaBudgetRefusals, st.QuotaRateRefusals)
	}
}
