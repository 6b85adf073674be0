package fleet

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/motiv"
	"adaptrm/internal/workload"
)

// TestControllerSteadyLightLoadEquivalence is the do-no-harm bar of the
// control layer: with a live controller ticking concurrently under
// steady light load (queues always in the drained band, so no actuator
// ever moves), the fleet's stats, per-device state and full event log
// are byte-identical to the controller-less fleet on the same trace.
// Run under -race this also exercises the Limits/Tick atomics against
// real traffic.
func TestControllerSteadyLightLoadEquivalence(t *testing.T) {
	const n, seed, ops = 3, 21, 120

	run := func(ctl *control.Controller) ([]deviceState, api.StatsResult, []api.Event) {
		t.Helper()
		f := newTestFleet(t, n, Options{Shards: 2, Control: ctl})
		svc := f.Service()
		ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		evs, wait := collectWatch(ch)

		stop := make(chan struct{})
		var tick sync.WaitGroup
		if ctl != nil {
			// The traffic below can finish before the scheduler ever runs
			// the ticker, so it starts only once the first tick has landed;
			// the later ones still race it.
			first := make(chan struct{})
			tick.Add(1)
			go func() {
				defer tick.Done()
				for now := 1.0; ; now++ {
					select {
					case <-stop:
						return
					default:
						ctl.Tick(now)
						if now == 1 {
							close(first)
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
			<-first
		}

		now := make([]float64, n)
		driveRecoveryTraffic(t, f, n, seed, ops, now, false)
		close(stop)
		tick.Wait()

		states := make([]deviceState, n)
		for d := 0; d < n; d++ {
			states[d] = captureDevice(t, f, d, false)
		}
		stats, err := svc.Stats(ctxBG, api.StatsRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		return states, stats.Deterministic(), *evs
	}

	baseStates, baseStats, baseEvs := run(nil)
	ctl := control.New(control.Config{})
	ctlStates, ctlStats, ctlEvs := run(ctl)

	if st := ctl.Status(); st.Mode != api.ModeNormal || st.ModeChanges != 0 || st.Ticks == 0 {
		t.Fatalf("light-load controller status = %+v, want ticking in normal mode", st)
	}
	if !reflect.DeepEqual(ctlStates, baseStates) {
		t.Errorf("device states diverged:\n ctl  %+v\n base %+v", ctlStates, baseStates)
	}
	if ctlStats != baseStats {
		t.Errorf("deterministic stats diverged:\n ctl  %+v\n base %+v", ctlStats, baseStats)
	}
	if !reflect.DeepEqual(ctlEvs, baseEvs) {
		t.Errorf("event logs diverged: %d vs %d events", len(ctlEvs), len(baseEvs))
	}
}

// TestControllerBurstShedsAndRecovers drives the overload story end to
// end on a wedged single-shard fleet: sustained queue pressure walks
// the controller normal → heuristic_only → shedding (each transition a
// mode_changed event), a submit in shedding is rejected with
// ErrOverloaded before anything is enqueued or any solver activation
// spent, advances and cancels keep draining, and a drained queue walks
// the controller back to normal.
func TestControllerBurstShedsAndRecovers(t *testing.T) {
	release := make(chan struct{})
	devs := []DeviceConfig{{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: blockingScheduler(release),
	}}
	// Any queued op counts as pressure, only an empty queue as drain:
	// the tick outcomes depend solely on whether the wedge has drained,
	// not on how far along it is.
	ctl := control.New(control.Config{
		HighDepthFrac: 0.01, LowDepthFrac: 0.005,
		EnterTicks: 1, ExitTicks: 1,
	})
	f, err := New(devs, Options{Shards: 1, MailboxSize: 8, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	svc := f.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)

	// Wedge the worker and park a burst behind it.
	if err := f.Replay([]workload.FleetRequest{
		{Device: 0, At: 0, App: "lambda1", Deadline: 20},
		{Device: 0, At: 1, App: "lambda1", Deadline: 30},
		{Device: 0, At: 2, App: "lambda2", Deadline: 35},
		{Device: 0, At: 3, App: "lambda1", Deadline: 40},
	}); err != nil {
		t.Fatal(err)
	}

	// Two pressured ticks escalate to shedding. Each transition's mode
	// broadcast needs the device lock the wedged solve is holding, so
	// the ticks run in a goroutine and the test feeds one solve release
	// whenever the tick sequence has not completed yet.
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		ctl.Tick(1)
		ctl.Tick(2)
	}()
	for done := false; !done; {
		select {
		case <-ticked:
			done = true
		case release <- struct{}{}:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if got := ctl.Mode(); got != api.ModeShedding {
		t.Fatalf("mode after pressured ticks = %v, want shedding", got)
	}

	// Admission sheds before the scheduler: ErrOverloaded, nothing
	// enqueued.
	depthBefore, _ := f.QueuePressure()
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 4, App: "lambda1", Deadline: 50}); !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("shedding submit: %v, want ErrOverloaded", err)
	}
	if _, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: 4, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 50},
	}}); !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("shedding batch: %v, want ErrOverloaded", err)
	}
	if depthAfter, _ := f.QueuePressure(); depthAfter > depthBefore {
		t.Errorf("shed submit was enqueued: depth %d -> %d", depthBefore, depthAfter)
	}
	if st := ctl.Status(); st.Sheds != 2 {
		t.Errorf("sheds = %d, want 2", st.Sheds)
	}

	// Drain the wedge fully; admitted work keeps flowing in shedding.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := f.QueuePressure(); d == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after release")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 5}); err != nil {
		t.Fatalf("advance must not shed: %v", err)
	}
	if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: 9999}); !errors.Is(err, api.ErrUnknownJob) {
		t.Fatalf("cancel must not shed: %v", err)
	}

	// Two drained ticks walk back to normal; admission works again.
	ctl.Tick(3)
	ctl.Tick(4)
	if got := ctl.Mode(); got != api.ModeNormal {
		t.Fatalf("mode after drained ticks = %v, want normal", got)
	}
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 6, App: "lambda1", Deadline: 60}); err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wait()

	// The transition history rode the ordinary event machinery.
	var modes []string
	for _, ev := range *evs {
		if ev.Type == api.EventModeChanged {
			modes = append(modes, ev.Payload)
		}
	}
	wantModes := []string{"heuristic_only", "shedding", "heuristic_only", "normal"}
	if !reflect.DeepEqual(modes, wantModes) {
		t.Errorf("mode_changed payloads = %v, want %v", modes, wantModes)
	}

	s := f.Stats()
	// 4 burst submits + 1 post-recovery reached a manager; the 2 shed
	// ones never did.
	if s.Submitted != 5 {
		t.Errorf("submitted = %d, want 5 (shed requests must not reach a manager)", s.Submitted)
	}
	if s.Shed != 2 || s.ControlMode != "normal" || s.ControlModeChanges != 4 {
		t.Errorf("control stats: mode %q shed %d changes %d, want normal/2/4",
			s.ControlMode, s.Shed, s.ControlModeChanges)
	}
}

// TestRecoverRestoresMode pins crash recovery of the degradation tier:
// mode_changed events replay verbatim (the recovery verifier rejects
// any divergence), the recovered device reports the logged mode, and a
// snapshot taken in a degraded mode restores it directly.
func TestRecoverRestoresMode(t *testing.T) {
	live := newTestFleet(t, 2, Options{Shards: 2})
	svc := live.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)

	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	live.applyMode(api.ModeNormal, api.ModeHeuristicOnly)
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 8}); err != nil {
		t.Fatal(err)
	}
	live.applyMode(api.ModeHeuristicOnly, api.ModeShedding)

	// A snapshot taken now carries the degraded mode.
	snap, err := live.DeviceSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Mode != "shedding" {
		t.Fatalf("snapshot mode = %q, want shedding", snap.Mode)
	}

	states := make([]deviceState, 2)
	for d := range states {
		states[d] = captureDevice(t, live, d, false)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	logs := perDeviceLogs(*evs, 2)
	for d := range logs {
		cut := len(logs[d])
		for cut > 0 && logs[d][cut-1].Seq > states[d].Seq {
			cut--
		}
		logs[d] = logs[d][:cut]
	}

	// Log-only recovery: every device replays its mode transitions.
	rec := map[int]DeviceRecovery{
		0: {Events: logs[0]},
		1: {Events: logs[1]},
	}
	f2, _, err := Recover([]DeviceConfig{testDeviceConfig(), testDeviceConfig()}, Options{Shards: 2}, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for d := range states {
		if got := captureDevice(t, f2, d, false); !reflect.DeepEqual(got, states[d]) {
			t.Errorf("device %d recovered state = %+v, want %+v", d, got, states[d])
		}
		s2, err := f2.DeviceSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Mode != "shedding" {
			t.Errorf("device %d recovered mode = %q, want shedding", d, s2.Mode)
		}
	}

	// Snapshot-plus-tail recovery restores the mode from the snapshot.
	f3, _, err := Recover([]DeviceConfig{testDeviceConfig(), testDeviceConfig()}, Options{Shards: 2},
		map[int]DeviceRecovery{0: {Snapshot: snap, Events: logs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if got := captureDevice(t, f3, 0, false); !reflect.DeepEqual(got, states[0]) {
		t.Errorf("snapshot recovery state = %+v, want %+v", got, states[0])
	}
	s3, err := f3.DeviceSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Mode != "shedding" {
		t.Errorf("snapshot-recovered mode = %q, want shedding", s3.Mode)
	}

	// A mode_changed event with a corrupted payload fails recovery
	// loudly instead of silently installing the wrong tier.
	bad := append([]api.Event(nil), logs[0]...)
	for i := range bad {
		if bad[i].Type == api.EventModeChanged {
			bad[i].Payload = "bogus"
			break
		}
	}
	if _, _, err := Recover([]DeviceConfig{testDeviceConfig(), testDeviceConfig()}, Options{Shards: 2},
		map[int]DeviceRecovery{0: {Events: bad}}); !errors.Is(err, ErrRecovery) {
		t.Errorf("corrupted mode payload recovered: %v, want ErrRecovery", err)
	}
}
