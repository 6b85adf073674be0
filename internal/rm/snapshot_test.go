package rm

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/platform"
	"adaptrm/internal/workload"
)

// managerState is everything a snapshot must reproduce, in comparable
// form.
type managerState struct {
	Now      float64
	Stats    Stats
	Active   []SnapshotJob
	Current  []SnapshotSegment
	EventSeq uint64
}

func captureState(m *Manager) managerState {
	s := m.Snapshot()
	st := m.Stats()
	st.SchedulingTime = 0 // wall time, inherently non-deterministic
	return managerState{
		Now:      m.Now(),
		Stats:    st,
		Active:   s.Active,
		Current:  s.Current,
		EventSeq: m.EventSeq(),
	}
}

// driveTraffic applies a deterministic seeded workload; shared by the
// original and restored managers so their futures are identical ops.
func driveTraffic(t *testing.T, m *Manager, seed int64, ops int, start float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"lambda1", "lambda2"}
	now := start
	var ids []int
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			id, ok, _, err := m.Submit(now, apps[rng.Intn(len(apps))], now+1+rng.Float64()*9)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if ok {
				ids = append(ids, id)
			}
		case 2:
			now += rng.Float64() * 3
			if _, err := m.AdvanceTo(now); err != nil {
				t.Fatalf("advance: %v", err)
			}
		case 3:
			if len(ids) > 0 {
				if err := m.Cancel(ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, ErrNoSuchJob) {
					t.Fatalf("cancel: %v", err)
				}
			}
		case 4:
			_, _, err := m.SubmitBatch(now, []Request{
				{App: apps[0], Deadline: now + 2 + rng.Float64()*8},
				{App: apps[1], Deadline: now + 2 + rng.Float64()*8},
			})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
		}
	}
}

// TestSnapshotRoundTrip drives seeded traffic, snapshots mid-flight,
// restores into a fresh manager (via a JSON round trip — the wire form
// durable persists), and checks (a) the restored state is byte-identical
// and (b) identical future traffic keeps both managers byte-identical,
// including event sequence numbering.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := newMgr(t, Options{})
		var evs []Event
		m.SetEventSink(func(ev Event) { evs = append(evs, ev) })
		driveTraffic(t, m, seed, 60, 0)

		raw, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		r := newMgr(t, Options{})
		var revs []Event
		r.SetEventSink(func(ev Event) { revs = append(revs, ev) })
		if err := r.Restore(&snap); err != nil {
			t.Fatal(err)
		}
		if len(revs) != 0 {
			t.Fatalf("seed %d: Restore emitted %d events", seed, len(revs))
		}
		if a, b := captureState(m), captureState(r); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: restored state differs:\n  orig %+v\n  rest %+v", seed, a, b)
		}

		// Identical futures: same ops → same states and same continued
		// event numbering.
		evs, revs = nil, nil
		start := m.Now()
		driveTraffic(t, m, seed+100, 40, start)
		driveTraffic(t, r, seed+100, 40, start)
		if a, b := captureState(m), captureState(r); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: post-restore traffic diverged:\n  orig %+v\n  rest %+v", seed, a, b)
		}
		if !reflect.DeepEqual(evs, revs) {
			t.Fatalf("seed %d: post-restore events diverged (%d vs %d)", seed, len(evs), len(revs))
		}
	}
}

// TestRestoreValidation: Restore rejects nil snapshots, non-fresh
// managers, unknown apps, out-of-range ids and started ids that are not
// active.
func TestRestoreValidation(t *testing.T) {
	fresh := func() *Manager { return newMgr(t, Options{}) }
	if err := fresh().Restore(nil); !errors.Is(err, ErrRestore) {
		t.Errorf("nil snapshot: %v", err)
	}
	used := fresh()
	if _, _, _, err := used.Submit(0, "lambda1", 9); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(&Snapshot{NextID: 1}); !errors.Is(err, ErrRestore) {
		t.Errorf("non-fresh manager: %v", err)
	}
	if err := fresh().Restore(&Snapshot{
		NextID: 2,
		Active: []SnapshotJob{{ID: 1, App: "nope", Remaining: 1}},
	}); !errors.Is(err, ErrRestore) {
		t.Errorf("unknown app: %v", err)
	}
	if err := fresh().Restore(&Snapshot{
		NextID: 2,
		Active: []SnapshotJob{{ID: 7, App: "lambda1", Remaining: 1}},
	}); !errors.Is(err, ErrRestore) {
		t.Errorf("id out of range: %v", err)
	}
	if err := fresh().Restore(&Snapshot{NextID: 1, Started: []int{3}}); !errors.Is(err, ErrRestore) {
		t.Errorf("started not active: %v", err)
	}
}

// TestRestoreRefusesBadPlacements: a snapshot whose schedule a restored
// manager cannot run is refused up front, instead of restoring cleanly
// and panicking on the first AdvanceTo. lambda1 has fewer than 999
// operating points.
func TestRestoreRefusesBadPlacements(t *testing.T) {
	active := []SnapshotJob{{ID: 1, App: "lambda1", Deadline: 9, Remaining: 1}}
	for _, tc := range []struct {
		name string
		seg  SnapshotSegment
	}{
		{"point out of range", SnapshotSegment{Start: 0, End: 5, Placements: []SnapshotPlacement{{Job: 1, Point: 999}}}},
		{"negative point", SnapshotSegment{Start: 0, End: 5, Placements: []SnapshotPlacement{{Job: 1, Point: -1}}}},
		{"job not active", SnapshotSegment{Start: 1, End: 5, Placements: []SnapshotPlacement{{Job: 2, Point: 0}}}},
		{"job never admitted", SnapshotSegment{Start: -2, End: -1, Placements: []SnapshotPlacement{{Job: 7, Point: 0}}}},
		{"end before start", SnapshotSegment{Start: 5, End: 4, Placements: []SnapshotPlacement{{Job: 1, Point: 0}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMgr(t, Options{})
			err := m.Restore(&Snapshot{NextID: 3, Active: active, Current: []SnapshotSegment{tc.seg}})
			if !errors.Is(err, ErrRestore) {
				t.Fatalf("Restore = %v, want ErrRestore", err)
			}
		})
	}
	// A completed job keeps its already-executed placements in the
	// schedule until the next re-plan, up to a segment starting at the
	// clock when it completed on the boundary; a snapshot carrying them
	// restores.
	m := newMgr(t, Options{})
	if err := m.Restore(&Snapshot{Now: 2, NextID: 3, Active: active, Current: []SnapshotSegment{
		{Start: 0, End: 2, Placements: []SnapshotPlacement{{Job: 2, Point: 0}}},
		{Start: 2, End: 5, Placements: []SnapshotPlacement{{Job: 1, Point: 0}, {Job: 2, Point: 0}}},
	}}); err != nil {
		t.Fatalf("history of a completed job refused: %v", err)
	}
	if _, err := m.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSizeTracksActiveJobs: a device's snapshot is bounded by
// the jobs it still schedules, not by how many it has served. One
// manager is fed a seeded trace; its encoded snapshot after about
// 20 000 submits must stay within a small constant of the one after
// about 2 000.
func TestSnapshotSizeTracksActiveJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 20 000 admissions")
	}
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Trace(lib, workload.TraceParams{Rate: 0.5, Horizon: 42000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(plat, lib, core.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := func() (bytes, active int) {
		s := m.Snapshot()
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return len(raw), len(s.Active)
	}
	const small, large = 2000, 20000
	if len(trace) < large {
		t.Fatalf("trace holds %d requests, want %d", len(trace), large)
	}
	var at [2]struct{ bytes, active int }
	for i, r := range trace[:large] {
		if _, _, _, err := m.Submit(r.At, r.App, r.Deadline); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case small:
			at[0].bytes, at[0].active = size()
		case large:
			at[1].bytes, at[1].active = size()
		}
	}
	t.Logf("snapshot after %d submits: %d B (%d active); after %d: %d B (%d active)",
		small, at[0].bytes, at[0].active, large, at[1].bytes, at[1].active)
	const slack = 4 << 10
	if d := at[1].bytes - at[0].bytes; d > slack || d < -slack {
		t.Errorf("snapshot grew from %d B to %d B over %d more submits: it tracks uptime, not active jobs",
			at[0].bytes, at[1].bytes, large-small)
	}
}
