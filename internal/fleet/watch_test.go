package fleet

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// collectWatch drains a watch channel into a slice until it closes,
// returning a wait function.
func collectWatch(ch <-chan api.Event) (*[]api.Event, func()) {
	var evs []api.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			evs = append(evs, ev)
		}
	}()
	return &evs, func() { <-done }
}

// checkDeviceSeqs asserts per-device sequence numbers are strictly
// monotone and gap-free (Lagged markers account for their gaps).
func checkDeviceSeqs(t *testing.T, evs []api.Event) {
	t.Helper()
	next := map[int]uint64{}
	for i, ev := range evs {
		if ev.Type == api.EventLagged {
			if ev.Device >= 0 && ev.Seq > 0 {
				next[ev.Device] = ev.Seq + uint64(ev.Dropped)
			} else {
				next = nil // aggregated marker: continuity unknowable
				break
			}
			continue
		}
		if want, seen := next[ev.Device]; seen && ev.Seq != want {
			t.Fatalf("event %d: device %d seq %d, want %d", i, ev.Device, ev.Seq, want)
		}
		next[ev.Device] = ev.Seq + 1
	}
}

// TestWatchLifecycle subscribes to one device and replays the
// motivational scenario plus a cancellation: the stream must carry the
// full story, in order, gap-free, and end when the fleet closes.
func TestWatchLifecycle(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	svc := f.Service()
	dev := 0
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Device: &dev})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)

	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("λ1: %+v %v", r, err)
	}
	r2, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 5})
	if err != nil || !r2.Accepted {
		t.Fatalf("λ2: %+v %v", r2, err)
	}
	if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: r2.JobID}); err != nil {
		t.Fatal(err)
	}
	// Traffic on the other device must not leak into this stream.
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 1, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()

	checkDeviceSeqs(t, *evs)
	var types []api.EventType
	for _, ev := range *evs {
		if ev.Device != 0 {
			t.Fatalf("device filter leaked event %+v", ev)
		}
		types = append(types, ev.Type)
	}
	want := []api.EventType{
		api.EventJobAdmitted, api.EventScheduleChanged, // λ1 in
		api.EventJobStarted,                            // λ1 runs while advancing to t=1
		api.EventJobAdmitted, api.EventScheduleChanged, // λ2 in
		api.EventJobCancelled, api.EventScheduleChanged, // λ2 out
		api.EventJobCompleted, api.EventClockAdvanced, // λ1 (started above) drains at Close
	}
	if len(types) != len(want) {
		t.Fatalf("stream = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("stream[%d] = %v, want %v (stream %v)", i, types[i], want[i], types)
		}
	}
}

// TestWatchAllDevices: a filterless subscription sees every device's
// events, each device's sub-stream still in sequence order.
func TestWatchAllDevices(t *testing.T) {
	f := newTestFleet(t, 3, Options{Shards: 2})
	svc := f.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	for d := 0; d < 3; d++ {
		if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: d, At: 0, App: "lambda1", Deadline: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	checkDeviceSeqs(t, *evs)
	perDev := map[int]int{}
	for _, ev := range *evs {
		perDev[ev.Device]++
	}
	for d := 0; d < 3; d++ {
		// Admitted, schedule, started, completed, drain clock advance.
		if perDev[d] != 5 {
			t.Errorf("device %d: %d events, want 5 (%+v)", d, perDev[d], *evs)
		}
	}
	// FromSeq without a device filter is rejected: sequence numbers are
	// per-device coordinates.
	if _, err := svc.Watch(ctxBG, api.WatchRequest{FromSeq: 1}); !errors.Is(err, api.ErrBadRequest) {
		t.Errorf("filterless FromSeq: %v, want ErrBadRequest", err)
	}
	if _, err := svc.Watch(ctxBG, api.WatchRequest{}); !errors.Is(err, api.ErrClosed) {
		t.Errorf("watch after close: %v, want ErrClosed", err)
	}
	nine := 9
	f2 := newTestFleet(t, 1, Options{})
	defer f2.Close()
	if _, err := f2.Service().Watch(ctxBG, api.WatchRequest{Device: &nine}); !errors.Is(err, api.ErrUnknownDevice) {
		t.Errorf("watch unknown device: %v, want ErrUnknownDevice", err)
	}
}

// TestWatchSlowConsumerLags: a subscriber with a 2-event buffer that
// never reads while traffic flows must not block the shard worker —
// the traffic completes — and must observe an EventLagged marker whose
// Dropped count closes the books against the device's full stream.
func TestWatchSlowConsumerLags(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	svc := f.Service()
	dev := 0
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Device: &dev, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No reader yet: the pump takes one event in flight, the ring holds
	// two more, everything else must fold into a Lagged marker.
	for i := 0; i < 6; i++ {
		if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatal(err)
		}
	}
	// The worker was demonstrably not blocked: all six submissions got
	// their replies with the watcher asleep. Now drain.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	wait()
	var lagged, dropped, received int
	for _, ev := range *evs {
		if ev.Type == api.EventLagged {
			lagged++
			dropped += ev.Dropped
			if ev.Device != 0 || ev.Seq == 0 {
				t.Errorf("single-device lag marker lost its coordinates: %+v", ev)
			}
		} else {
			received++
		}
	}
	if lagged == 0 {
		t.Fatalf("no Lagged marker in %+v", *evs)
	}
	// Received + dropped must cover the device's whole stream.
	var total uint64
	for _, ev := range *evs {
		if ev.Seq > total {
			total = ev.Seq
		}
	}
	d := f.devices[0]
	d.mu.Lock()
	emitted := d.history.n
	d.mu.Unlock()
	if received+dropped != emitted {
		t.Errorf("received %d + dropped %d ≠ emitted %d (%+v)", received, dropped, emitted, *evs)
	}
	checkDeviceSeqs(t, *evs)
}

// TestWatchResume: a watcher that disconnects mid-stream and resumes
// from its last seen sequence number receives exactly the missed tail —
// the union of both connections is byte-identical to an uninterrupted
// watcher's log.
func TestWatchResume(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	svc := f.Service()
	dev := 0
	full, err := svc.Watch(ctxBG, api.WatchRequest{Device: &dev})
	if err != nil {
		t.Fatal(err)
	}
	fullLog, waitFull := collectWatch(full)

	ctx1, cancel1 := context.WithCancel(ctxBG)
	first, err := svc.Watch(ctx1, api.WatchRequest{Device: &dev})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("λ1: %v", err)
	}
	// Read the first connection up to the admission, then drop it.
	var got []api.Event
	for ev := range first {
		got = append(got, ev)
		if ev.Type == api.EventScheduleChanged {
			break
		}
	}
	cancel1()
	if len(got) == 0 {
		t.Fatal("first connection saw nothing")
	}
	last := got[len(got)-1].Seq

	// More traffic while disconnected.
	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 5}); err != nil || !r.Accepted {
		t.Fatalf("λ2: %v", err)
	}

	// Reconnect from the gap.
	second, err := svc.Watch(ctxBG, api.WatchRequest{Device: &dev, FromSeq: last + 1})
	if err != nil {
		t.Fatal(err)
	}
	tail, waitTail := collectWatch(second)

	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 20}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitFull()
	waitTail()

	union := append(append([]api.Event{}, got...), *tail...)
	if len(union) != len(*fullLog) {
		t.Fatalf("union has %d events, uninterrupted watcher %d:\nunion %+v\nfull  %+v",
			len(union), len(*fullLog), union, *fullLog)
	}
	for i := range union {
		if union[i] != (*fullLog)[i] {
			t.Fatalf("union[%d] = %+v ≠ full[%d] = %+v", i, union[i], i, (*fullLog)[i])
		}
	}
	checkDeviceSeqs(t, union)
}

// TestWatchResumeBeyondHistory: resuming from a sequence number the
// retention window no longer covers opens the stream with an explicit
// Lagged marker for the evicted range, then continues gap-free.
func TestWatchResumeBeyondHistory(t *testing.T) {
	f := newTestFleet(t, 1, Options{EventHistory: 3})
	svc := f.Service()
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatal(err)
		}
	}
	dev := 0
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Device: &dev, FromSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	if len(*evs) == 0 || (*evs)[0].Type != api.EventLagged {
		t.Fatalf("stream does not open with Lagged: %+v", *evs)
	}
	marker := (*evs)[0]
	if marker.Seq != 1 || marker.Dropped < 1 {
		t.Fatalf("marker %+v, want Seq 1 and a positive Dropped", marker)
	}
	if len(*evs) < 2 || (*evs)[1].Seq != marker.Seq+uint64(marker.Dropped) {
		t.Fatalf("stream not contiguous after marker: %+v", *evs)
	}
	checkDeviceSeqs(t, *evs)
}

// TestWatchBufferClamp: the subscriber buffer is client-supplied over
// the network, so it must never turn into an arbitrarily large
// allocation — it is capped, and non-positive values take the fleet
// default.
func TestWatchBufferClamp(t *testing.T) {
	cases := []struct{ requested, fleetDefault, want int }{
		{0, 256, 256},
		{-5, 64, 64},
		{100, 256, 100},
		{maxWatchBuffer, 256, maxWatchBuffer},
		{maxWatchBuffer + 1, 256, maxWatchBuffer},
		{1 << 30, 256, maxWatchBuffer},
	}
	for _, c := range cases {
		if got := clampBuffer(c.requested, c.fleetDefault); got != c.want {
			t.Errorf("clampBuffer(%d, %d) = %d, want %d", c.requested, c.fleetDefault, got, c.want)
		}
	}
	// End to end: an absurd request must subscribe instantly (no 8 GiB
	// ring) and still stream.
	f := newTestFleet(t, 1, Options{})
	dev := 0
	ch, err := f.Watch(ctxBG, api.WatchRequest{Device: &dev, Buffer: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	if _, err := f.Service().Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	if len(*evs) == 0 {
		t.Error("clamped subscription streamed nothing")
	}
}

// signallingScheduler announces every solve entry on entered, then
// waits for release — letting a test wedge a shard worker and line up
// mailbox contents deterministically.
func signallingScheduler(entered chan<- struct{}, release <-chan struct{}) sched.Scheduler {
	inner := core.New()
	return sched.Func{ID: "signalling", F: func(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, error) {
		entered <- struct{}{}
		<-release
		return inner.Schedule(jobs, plat, t)
	}}
}

// TestBatchWindowCancelBarrier pins the submit/cancel ordering under
// worker-side coalescing: a Cancel queued behind a submit that is still
// eligible for the same coalescing window must act as a barrier — the
// pending submit is decided first, then the cancel — so the cancel
// deterministically hits the job the submit admitted.
func TestBatchWindowCancelBarrier(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	devs := []DeviceConfig{{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: signallingScheduler(entered, release),
	}}
	f, err := New(devs, Options{Shards: 1, BatchWindow: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Wedge the worker: a submit whose deadline is inside the window
	// executes directly (no coalescing) and stalls in its solve. λ1
	// cannot finish by t=0.4, so its verdict is a deterministic
	// rejection and job ids start at 1 for the next submit.
	if err := f.post(ctx, 0, op{kind: opSubmit, at: 0, app: "lambda1", deadline: 0.4}); err != nil {
		t.Fatal(err)
	}
	<-entered
	// While the worker is wedged, line up: a coalescible submit (S),
	// the cancel of the job id S will be assigned, and another
	// coalescible submit. Without the barrier the two submits would
	// batch and the cancel would run before its job exists.
	if err := f.post(ctx, 0, op{kind: opSubmit, at: 0.1, app: "lambda1", deadline: 30}); err != nil {
		t.Fatal(err)
	}
	if err := f.post(ctx, 0, op{kind: opCancel, jobID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.post(ctx, 0, op{kind: opSubmit, at: 0.2, app: "lambda2", deadline: 30}); err != nil {
		t.Fatal(err)
	}
	close(release)
	go func() {
		for range entered { // release every later solve immediately
		}
	}()
	// Close surfaces any recorded per-op error — a misordered cancel
	// would report ErrNoSuchJob here.
	if err := f.Close(); err != nil {
		t.Fatalf("interleaved submit/cancel resolved nondeterministically: %v", err)
	}
	close(entered)
	s := f.Stats()
	if s.Submitted != 3 || s.Accepted != 2 || s.Rejected != 1 || s.Cancelled != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want 3 submitted, 2 accepted, 1 rejected, 1 cancelled, 1 completed", s)
	}
}

// TestBatchWindowSubmitCancelRace floods one device with concurrent
// submits and cancels of every admitted job under an active coalescing
// window: every cancel issued after its admission reply must succeed,
// and the lifecycle ledger must close exactly. Run under -race in CI.
func TestBatchWindowSubmitCancelRace(t *testing.T) {
	f := newTestFleet(t, 1, Options{Shards: 1, BatchWindow: 1})
	svc := f.Service()
	const n = 40
	ids := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ids)
		for i := 0; i < n; i++ {
			r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 1000})
			switch {
			case err == nil && r.Accepted:
				ids <- r.JobID
			case errors.Is(err, api.ErrInfeasible):
			default:
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for id := range ids {
			if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: id}); err != nil {
				t.Errorf("cancel %d: %v", id, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted != s.Accepted+s.Rejected {
		t.Errorf("submitted %d ≠ accepted %d + rejected %d", s.Submitted, s.Accepted, s.Rejected)
	}
	if s.Accepted != s.Completed+s.Cancelled {
		t.Errorf("accepted %d ≠ completed %d + cancelled %d after close", s.Accepted, s.Completed, s.Cancelled)
	}
	if s.Accepted == 0 {
		t.Error("race exercise admitted nothing")
	}
}

// eventCounters folds a device's event sub-stream into the admission
// counters it implies.
type eventCounters struct {
	submitted, accepted, rejected, completed, cancelled, missed int
}

// jobSpan is a job's executed extent reconstructed from events.
type jobSpan struct{ start, end float64 }

// replayEvents reconstructs, per device, the admission counters and the
// executed span of every job from an event log — the replay half of the
// watch-equivalence contract.
func replayEvents(t *testing.T, evs []api.Event) (map[int]*eventCounters, map[int]map[int]*jobSpan) {
	t.Helper()
	counters := map[int]*eventCounters{}
	spans := map[int]map[int]*jobSpan{}
	for _, ev := range evs {
		if ev.Type == api.EventLagged {
			t.Fatalf("equivalence log lagged: %+v", ev)
		}
		c := counters[ev.Device]
		if c == nil {
			c = &eventCounters{}
			counters[ev.Device] = c
			spans[ev.Device] = map[int]*jobSpan{}
		}
		switch ev.Type {
		case api.EventJobAdmitted:
			c.submitted++
			c.accepted++
		case api.EventJobRejected:
			c.submitted++
			c.rejected++
		case api.EventJobStarted:
			spans[ev.Device][ev.JobID] = &jobSpan{start: ev.At, end: math.NaN()}
		case api.EventJobCompleted:
			c.completed++
			if ev.Missed {
				c.missed++
			}
			if sp := spans[ev.Device][ev.JobID]; sp != nil {
				sp.end = ev.At
			} else {
				t.Fatalf("device %d job %d completed without starting", ev.Device, ev.JobID)
			}
		case api.EventJobCancelled:
			c.cancelled++
		}
	}
	return counters, spans
}

// TestWatchReplayEquivalence is the in-process half of the acceptance
// contract: for a seeded FleetTrace (with cancellations mixed in), the
// event log received by a fleet-wide watcher reconstructs the admission
// statistics byte-identically to the managers' own reports, and every
// job's completion time to the completions the service calls returned.
// (That each job starts where its schedule first runs it is pinned at
// the manager, against the clipped timeline.)
func TestWatchReplayEquivalence(t *testing.T) {
	const devices = 3
	f := newTestFleet(t, devices, Options{Shards: 2})
	svc := f.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)

	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 60, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var admitted []int // (device, id) pairs flattened as device*1e6+id
	completed := make([]map[int]float64, devices)
	for d := range completed {
		completed[d] = map[int]float64{}
	}
	record := func(d int, cs []api.Completion) {
		for _, c := range cs {
			completed[d][c.JobID] = c.At
		}
	}
	for i, r := range trace {
		res, err := svc.Submit(ctxBG, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
		if err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatalf("trace %d: %v", i, err)
		}
		record(r.Device, res.Completions)
		if res.Accepted {
			admitted = append(admitted, r.Device*1e6+res.JobID)
		}
		// Sprinkle cancellations over the live set.
		if i%7 == 3 && len(admitted) > 0 {
			key := admitted[len(admitted)-1]
			admitted = admitted[:len(admitted)-1]
			if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: key / 1e6, JobID: key % 1e6}); err != nil && !errors.Is(err, api.ErrUnknownJob) {
				t.Fatalf("cancel: %v", err)
			}
		}
	}

	// Run every device past its last deadline through the service, so
	// the service calls return every completion; Close then has nothing
	// left to drain.
	for d := 0; d < devices; d++ {
		res, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: d, To: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		record(d, res.Completions)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	counters, spans := replayEvents(t, *evs)
	for d := 0; d < devices; d++ {
		ds, err := f.DeviceStats(d)
		if err != nil {
			t.Fatal(err)
		}
		c := counters[d]
		if c == nil {
			c = &eventCounters{}
		}
		if c.submitted != ds.Submitted || c.accepted != ds.Accepted || c.rejected != ds.Rejected ||
			c.completed != ds.Completed || c.cancelled != ds.Cancelled || c.missed != ds.DeadlineMisses {
			t.Errorf("device %d: replayed counters %+v ≠ manager stats %+v", d, *c, ds)
		}
		if len(completed[d]) != ds.Completed {
			t.Errorf("device %d: service returned %d completions, manager counts %d", d, len(completed[d]), ds.Completed)
		}
		replayed := spans[d]
		for id, sp := range replayed {
			at, done := completed[d][id]
			switch {
			case math.IsNaN(sp.end) && done:
				t.Errorf("device %d job %d completed at %v, never in the event log", d, id, at)
			case !math.IsNaN(sp.end) && (!done || at != sp.end):
				t.Errorf("device %d job %d: replayed completion %v, service returned %v (%v)", d, id, sp.end, at, done)
			}
		}
		for id := range completed[d] {
			if replayed[id] == nil {
				t.Errorf("device %d job %d completed but never appeared in the event log", d, id)
			}
		}
	}
	checkDeviceSeqs(t, *evs)
}
