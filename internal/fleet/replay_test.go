package fleet

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/motiv"
	"adaptrm/internal/rm"
)

// captureDevice returns one device's full state — clock, event
// sequence, counters, active jobs and the schedule in force — in the
// comparable snapshot form. SchedulingTimeNs is wall clock and zeroed;
// zeroActivations also zeroes Activations, which replay undercounts by
// a batch's failed joint solves.
func captureDevice(t *testing.T, f *Fleet, dev int, zeroActivations bool) rm.Snapshot {
	t.Helper()
	s, err := f.DeviceSnapshot(dev)
	if err != nil {
		t.Fatal(err)
	}
	s.SchedulingTimeNs = 0
	if zeroActivations {
		s.Activations = 0
	}
	return *s
}

// driveRecoveryTraffic pushes seeded deterministic per-device traffic
// through the service. withBatches additionally exercises SubmitBatch —
// whose failed joint solves are the one documented replay divergence
// (Activations), so callers compare accordingly.
func driveRecoveryTraffic(t *testing.T, f *Fleet, n int, seed int64, ops int, now []float64, withBatches bool) {
	t.Helper()
	svc := f.Service()
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"lambda1", "lambda2"}
	jobs := make([][]int, n)
	for i := 0; i < ops; i++ {
		d := rng.Intn(n)
		kinds := 5
		if withBatches {
			kinds = 6
		}
		switch rng.Intn(kinds) {
		case 0, 1, 2:
			r, err := svc.Submit(ctxBG, api.SubmitRequest{
				Device: d, At: now[d], App: apps[rng.Intn(len(apps))],
				Deadline: now[d] + 1 + rng.Float64()*9,
			})
			if err != nil && !errors.Is(err, api.ErrInfeasible) {
				t.Fatalf("submit: %v", err)
			}
			if err == nil && r.Accepted {
				jobs[d] = append(jobs[d], r.JobID)
			}
		case 3:
			now[d] += rng.Float64() * 2
			if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: d, To: now[d]}); err != nil {
				t.Fatalf("advance: %v", err)
			}
		case 4:
			if len(jobs[d]) == 0 {
				continue
			}
			id := jobs[d][rng.Intn(len(jobs[d]))]
			if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: d, JobID: id}); err != nil && !errors.Is(err, api.ErrUnknownJob) {
				t.Fatalf("cancel: %v", err)
			}
		case 5:
			res, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: d, At: now[d], Items: []api.BatchItem{
				{App: apps[0], Deadline: now[d] + 2 + rng.Float64()*8},
				{App: apps[1], Deadline: now[d] + 2 + rng.Float64()*8},
			}})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for _, v := range res.Verdicts {
				if v.Accepted {
					jobs[d] = append(jobs[d], v.JobID)
				}
			}
		}
	}
}

// perDeviceLogs splits a fleet-wide watch log by device.
func perDeviceLogs(evs []api.Event, n int) [][]api.Event {
	out := make([][]api.Event, n)
	for _, ev := range evs {
		out[ev.Device] = append(out[ev.Device], ev)
	}
	return out
}

// testDeviceConfig builds one motivational device config; each call
// returns a fresh scheduler instance, as fleets require.
func testDeviceConfig() DeviceConfig {
	return DeviceConfig{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: core.New(),
	}
}

// TestRecoverEquivalence is the kill-and-recover equivalence bar of the
// durability subsystem at the fleet layer: a fleet rebuilt from (a) the
// full event log, (b) a mid-traffic snapshot plus the log tail, and
// (c) the snapshot alone reconstructs per-device state — stats, clock,
// active jobs and schedule — byte-identical to the live fleet at the
// same sequence number.
func TestRecoverEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name        string
		seed        int64
		withBatches bool
	}{
		// Batch traffic's failed joint solves are invisible to the log, so
		// replay undercounts Activations by exactly those attempts; every
		// other quantity stays exact (compared with Activations zeroed).
		{"sequential", 11, false},
		{"batched", 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			opt := Options{Shards: 2}
			live := newTestFleet(t, n, opt)
			svc := live.Service()
			ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			evs, wait := collectWatch(ch)

			now := make([]float64, n)
			driveRecoveryTraffic(t, live, n, tc.seed, 80, now, tc.withBatches)
			// Mid-traffic snapshots: service calls above are synchronous,
			// so each device is quiescent and the snapshot aligns with a
			// definite log position.
			midSnaps := make([]*rm.Snapshot, n)
			midStates := make([]rm.Snapshot, n)
			for d := 0; d < n; d++ {
				s, err := live.DeviceSnapshot(d)
				if err != nil {
					t.Fatal(err)
				}
				midSnaps[d] = s
				midStates[d] = captureDevice(t, live, d, tc.withBatches)
			}
			driveRecoveryTraffic(t, live, n, tc.seed+1000, 80, now, tc.withBatches)

			finalStates := make([]rm.Snapshot, n)
			for d := 0; d < n; d++ {
				finalStates[d] = captureDevice(t, live, d, tc.withBatches)
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			wait()
			logs := perDeviceLogs(*evs, n)
			// Drop the Close drain's events: the references above were
			// captured before Close.
			for d := 0; d < n; d++ {
				cut := len(logs[d])
				for cut > 0 && logs[d][cut-1].Seq > finalStates[d].EventSeq {
					cut--
				}
				logs[d] = logs[d][:cut]
			}

			check := func(mode string, rec map[int]DeviceRecovery, want []rm.Snapshot) {
				t.Helper()
				recDevs := make([]DeviceConfig, n)
				for i := range recDevs {
					recDevs[i] = testDeviceConfig()
				}
				f2, results, err := Recover(recDevs, opt, rec)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				defer f2.Close()
				for d := 0; d < n; d++ {
					got := captureDevice(t, f2, d, tc.withBatches)
					if !reflect.DeepEqual(got, want[d]) {
						t.Errorf("%s: device %d state differs:\n got %+v\nwant %+v", mode, d, got, want[d])
					}
					res := results[d]
					if res.AppliedSeq != want[d].EventSeq || res.Dropped != 0 {
						t.Errorf("%s: device %d result %+v, want applied %d dropped 0", mode, d, res, want[d].EventSeq)
					}
				}
			}

			logOnly := make(map[int]DeviceRecovery, n)
			snapTail := make(map[int]DeviceRecovery, n)
			snapOnly := make(map[int]DeviceRecovery, n)
			for d := 0; d < n; d++ {
				logOnly[d] = DeviceRecovery{Events: logs[d]}
				snapTail[d] = DeviceRecovery{Snapshot: midSnaps[d], Events: logs[d]}
				snapOnly[d] = DeviceRecovery{Snapshot: midSnaps[d]}
			}
			check("log-only", logOnly, finalStates)
			check("snapshot+tail", snapTail, finalStates)
			check("snapshot-only", snapOnly, midStates)
		})
	}
}

// TestRecoverTornTail: a log cut mid-unit (an admission whose
// schedule_changed terminator never landed) recovers to the longest
// complete prefix, reporting the dropped events, and the recovered
// fleet still satisfies the admission ledger invariant.
func TestRecoverTornTail(t *testing.T) {
	const n = 1
	opt := Options{}
	live := newTestFleet(t, n, opt)
	svc := live.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	now := []float64{0}
	driveRecoveryTraffic(t, live, n, 5, 40, now, false)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	log := perDeviceLogs(*evs, n)[0]

	// Cut right after each admission event: the terminator is missing, so
	// that whole unit must be dropped.
	cuts := 0
	for i, ev := range log {
		if ev.Type != api.EventJobAdmitted || i+1 >= len(log) || log[i+1].Type != api.EventScheduleChanged {
			continue
		}
		cuts++
		torn := log[:i+1]
		f2, results, err := Recover([]DeviceConfig{testDeviceConfig()}, opt, map[int]DeviceRecovery{0: {Events: torn}})
		if err != nil {
			t.Fatalf("cut at %d: %v", i, err)
		}
		res := results[0]
		if res.Dropped == 0 || res.AppliedSeq+uint64(res.Dropped) != torn[len(torn)-1].Seq {
			t.Errorf("cut at %d: result %+v does not account for the torn unit", i, res)
		}
		// Ledger invariant: Accepted = Completed + Cancelled + active.
		st, _ := f2.DeviceStats(0)
		if st.Accepted-st.Completed-st.Cancelled < 0 {
			t.Errorf("cut at %d: ledger violated: %+v", i, st)
		}
		f2.Close()
		if cuts >= 4 {
			break
		}
	}
	if cuts == 0 {
		t.Fatal("traffic produced no admissions to cut at")
	}
}

// TestRecoverRejectsBadLogs: gaps, impossible events and tampered
// payloads fail recovery loudly rather than rebuilding a diverged
// fleet.
func TestRecoverRejectsBadLogs(t *testing.T) {
	live := newTestFleet(t, 1, Options{})
	svc := live.Service()
	ch, err := svc.Watch(ctxBG, api.WatchRequest{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	evs, wait := collectWatch(ch)
	now := []float64{0}
	driveRecoveryTraffic(t, live, 1, 9, 30, now, false)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	log := perDeviceLogs(*evs, 1)[0]
	if len(log) < 6 {
		t.Fatalf("traffic too small: %d events", len(log))
	}
	recover1 := func(events []api.Event) error {
		_, _, err := Recover([]DeviceConfig{testDeviceConfig()}, Options{}, map[int]DeviceRecovery{0: {Events: events}})
		return err
	}

	gap := append(append([]api.Event{}, log[:2]...), log[3:]...)
	if err := recover1(gap); !errors.Is(err, ErrRecovery) {
		t.Errorf("gap: %v, want ErrRecovery", err)
	}
	lagged := append([]api.Event{}, log...)
	lagged[1] = api.Event{Device: 0, Seq: lagged[1].Seq, Type: api.EventLagged, Dropped: 3}
	if err := recover1(lagged); !errors.Is(err, ErrRecovery) {
		t.Errorf("lagged marker: %v, want ErrRecovery", err)
	}
	tampered := append([]api.Event{}, log...)
	for i := range tampered {
		if tampered[i].Type == api.EventJobAdmitted {
			tampered[i].Deadline += 17 // diverges the replayed admission
			break
		}
	}
	if err := recover1(tampered); !errors.Is(err, ErrRecovery) {
		t.Errorf("tampered payload: %v, want ErrRecovery", err)
	}
	if _, _, err := Recover([]DeviceConfig{testDeviceConfig()}, Options{},
		map[int]DeviceRecovery{3: {}}); !errors.Is(err, ErrRecovery) {
		t.Errorf("out-of-range device: %v, want ErrRecovery", err)
	}
}

// TestParseRefusesDerivedScheduleChange: a clock advance never
// re-plans, so schedule_changed only closes an admission or a
// cancellation. One between an advance's completions and its
// clock_advanced anchor — the shape a completion re-plan used to log —
// is a parse error, not a derived event.
func TestParseRefusesDerivedScheduleChange(t *testing.T) {
	unit := []api.Event{
		{Seq: 1, Type: api.EventJobAdmitted, At: 0, JobID: 1, App: "lambda1", Deadline: 9},
		{Seq: 2, Type: api.EventScheduleChanged, At: 0},
		{Seq: 3, Type: api.EventJobStarted, At: 0, JobID: 1},
		{Seq: 4, Type: api.EventJobCompleted, At: 6, JobID: 1},
	}
	clean := append(append([]api.Event{}, unit...), api.Event{Seq: 5, Type: api.EventClockAdvanced, At: 7})
	if ops, cut, err := parseReplayOps(clean); err != nil || len(ops) != 2 || cut != len(clean) {
		t.Fatalf("clean log: %d ops, cut %d, %v", len(ops), cut, err)
	}
	stray := append(append([]api.Event{}, unit...),
		api.Event{Seq: 5, Type: api.EventScheduleChanged, At: 6},
		api.Event{Seq: 6, Type: api.EventClockAdvanced, At: 7})
	if _, _, err := parseReplayOps(stray); err == nil {
		t.Fatal("schedule_changed in derived position parsed")
	}
	if _, _, err := Recover([]DeviceConfig{testDeviceConfig()}, Options{},
		map[int]DeviceRecovery{0: {Events: stray}}); !errors.Is(err, ErrRecovery) {
		t.Errorf("recovery from the stray log: %v, want ErrRecovery", err)
	}
}
