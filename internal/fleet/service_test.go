package fleet

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// ctxBG shortens the no-cancellation calls.
var ctxBG = context.Background()

// TestServiceSubmitReturnsDecision replays the motivational scenario
// through the typed protocol: the decision, job ids and completions all
// come back to the caller instead of being discarded.
func TestServiceSubmitReturnsDecision(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	svc := f.Service()
	r1, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if err != nil || !r1.Accepted || r1.JobID != 1 {
		t.Fatalf("λ1: res %+v err %v, want accepted job 1", r1, err)
	}
	r2, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 5})
	if err != nil || !r2.Accepted || r2.JobID != 2 {
		t.Fatalf("λ2: res %+v err %v, want accepted job 2", r2, err)
	}
	adv, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Completions) != 2 {
		t.Fatalf("completions = %+v, want both jobs", adv.Completions)
	}
	for _, c := range adv.Completions {
		if c.Missed {
			t.Errorf("job %d missed its deadline", c.JobID)
		}
	}
	st, err := svc.Stats(ctxBG, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.Accepted != 2 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	dev := 0
	ds, err := svc.Stats(ctxBG, api.StatsRequest{Device: &dev})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Devices != 1 || ds.Accepted != 2 {
		t.Fatalf("device stats = %+v", ds)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRejectionIsTyped: the 2L2B platform fits one λ1 with
// deadline 9 but MMKP-MDF finds no plan for a second — the second
// submission must return api.ErrInfeasible with Accepted false, and the
// fleet must keep serving afterwards.
func TestServiceRejectionIsTyped(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	defer f.Close()
	svc := f.Service()
	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("first λ1: res %+v err %v", r, err)
	}
	r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if r.Accepted || r.JobID != 0 {
		t.Fatalf("rejected submit returned %+v", r)
	}
	st, _ := svc.Stats(ctxBG, api.StatsRequest{})
	if st.Rejected != 1 || st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The rejection left no residue: a feasible shape is still admitted.
	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("λ2 after rejection: res %+v err %v", r, err)
	}
}

// TestServiceCancelReclaimsResources: after a rejection, cancelling an
// admitted job must free enough capacity for the rejected shape to be
// admitted on retry — the pass-through the legacy fleet lacked.
func TestServiceCancelReclaimsResources(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	defer f.Close()
	svc := f.Service()
	first, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); err != nil {
			t.Fatalf("λ2 #%d: %v", i, err)
		}
	}
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("third λ2 not rejected: %v", err)
	}
	cr, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: first.JobID})
	if err != nil || !cr.Cancelled {
		t.Fatalf("cancel: %+v, %v", cr, err)
	}
	if r, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("resubmit after cancel: res %+v err %v", r, err)
	}
	// The legacy pass-through reaches the same manager.
	if err := f.Cancel(0, 2); err != nil {
		t.Fatalf("legacy Cancel: %v", err)
	}
	if err := f.Cancel(0, 999); !errors.Is(err, api.ErrUnknownJob) {
		t.Fatalf("legacy Cancel unknown job: %v", err)
	}
}

// TestServiceErrorTaxonomy checks every typed error the in-process
// implementation can produce.
func TestServiceErrorTaxonomy(t *testing.T) {
	f := newTestFleet(t, 2, Options{})
	svc := f.Service()
	cases := []struct {
		name string
		call func() error
		want *api.Error
	}{
		{"unknown device", func() error {
			_, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 9, At: 0, App: "lambda1", Deadline: 9})
			return err
		}, api.ErrUnknownDevice},
		{"negative device", func() error {
			_, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: -1, To: 5})
			return err
		}, api.ErrUnknownDevice},
		{"unknown app", func() error {
			_, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "nope", Deadline: 9})
			return err
		}, api.ErrUnknownApp},
		{"bad deadline", func() error {
			_, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 5, App: "lambda1", Deadline: 5})
			return err
		}, api.ErrBadRequest},
		{"time backwards", func() error {
			if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 1, To: 10}); err != nil {
				return err
			}
			_, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 1, To: 3})
			return err
		}, api.ErrBadRequest},
		{"unknown job", func() error {
			_, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: 77})
			return err
		}, api.ErrUnknownJob},
		{"stats unknown device", func() error {
			dev := 5
			_, err := svc.Stats(ctxBG, api.StatsRequest{Device: &dev})
			return err
		}, api.ErrUnknownDevice},
	}
	for _, c := range cases {
		if err := c.call(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, api.ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// blockingScheduler wraps MMKP-MDF but stalls every solve until
// released, letting tests wedge a shard worker deterministically.
func blockingScheduler(release <-chan struct{}) sched.Scheduler {
	inner := core.New()
	return sched.Func{ID: "blocking", F: func(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, error) {
		<-release
		return inner.Schedule(jobs, plat, t)
	}}
}

// TestServiceBackpressureHonoursContext wedges the single shard worker,
// fills the one-slot mailbox, and checks that a context-bounded submit
// fails with ErrOverloaded (and the context cause) instead of blocking
// forever — then releases the worker and verifies nothing was lost.
func TestServiceBackpressureHonoursContext(t *testing.T) {
	release := make(chan struct{})
	devs := []DeviceConfig{{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: blockingScheduler(release),
	}}
	f, err := New(devs, Options{Shards: 1, MailboxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc := f.Service()
	// First request: the worker picks it up and stalls inside the solve.
	// Second request: parks in the mailbox, filling it.
	if err := f.Replay([]workload.FleetRequest{
		{Device: 0, At: 0, App: "lambda1", Deadline: 30},
		{Device: 0, At: 1, App: "lambda2", Deadline: 31},
	}); err != nil {
		t.Fatal(err)
	}
	// Replay returning guarantees the mailbox is full: the second send
	// into the size-1 mailbox can only land after the worker removed
	// the first op (now wedged in its solve).
	ctx, cancel := context.WithTimeout(ctxBG, 50*time.Millisecond)
	defer cancel()
	_, err = svc.Submit(ctx, api.SubmitRequest{Device: 0, At: 2, App: "lambda1", Deadline: 40})
	if !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	// A pre-cancelled context fails fast even with mailbox space.
	cancelled, cancel2 := context.WithCancel(ctxBG)
	cancel2()
	if _, err := svc.Submit(cancelled, api.SubmitRequest{Device: 0, At: 3, App: "lambda1", Deadline: 41}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit: %v, want context.Canceled", err)
	}
	close(release)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted != 2 || s.Completed != s.Accepted {
		t.Fatalf("post-release stats: %+v", s)
	}
}

// TestServiceMatchesLegacyReplay drives the same seeded trace through
// the typed service (sequentially per device) and through the legacy
// fire-and-forget Replay, asserting identical deterministic aggregates.
func TestServiceMatchesLegacyReplay(t *testing.T) {
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: 3, Rate: 0.2, RateSpread: 0.5, Horizon: 80, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	legacy := newTestFleet(t, 3, Options{Shards: 2})
	if err := legacy.Replay(trace); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	typed := newTestFleet(t, 3, Options{Shards: 2})
	svc := typed.Service()
	var accepted, rejected int
	for _, r := range trace {
		res, err := svc.Submit(ctxBG, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
		switch {
		case err == nil && res.Accepted:
			accepted++
		case errors.Is(err, api.ErrInfeasible):
			rejected++
		default:
			t.Fatalf("submit %+v: %v", r, err)
		}
	}
	if err := typed.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := legacy.Stats(), typed.Stats()
	if deterministic(a) != deterministic(b) {
		t.Errorf("stats diverged:\nlegacy %+v\ntyped  %+v", deterministic(a), deterministic(b))
	}
	if accepted != b.Accepted || rejected != b.Rejected {
		t.Errorf("per-request decisions (%d/%d) disagree with stats %+v", accepted, rejected, b)
	}
}

// TestStatsResultCarriesEveryField: the fleet-to-protocol copy carries
// every Stats field, so a counter added to both structs cannot be lost
// on the way out.
func TestStatsResultCarriesEveryField(t *testing.T) {
	renamed := map[string]string{"Swaps": "ScheduleSwaps"}
	var fs Stats
	fv := reflect.ValueOf(&fs).Elem()
	for i := 0; i < fv.NumField(); i++ {
		switch f := fv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString("shedding")
		default:
			t.Fatalf("Stats.%s has unhandled kind %v", fv.Type().Field(i).Name, f.Kind())
		}
	}
	rv := reflect.ValueOf(statsResult(fs))
	for i := 0; i < fv.NumField(); i++ {
		name := fv.Type().Field(i).Name
		if r, ok := renamed[name]; ok {
			name = r
		}
		got := rv.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("Stats.%s has no StatsResult field", fv.Type().Field(i).Name)
			continue
		}
		if got.Interface() != fv.Field(i).Interface() {
			t.Errorf("StatsResult.%s = %v, want %v", name, got.Interface(), fv.Field(i).Interface())
		}
	}
}
