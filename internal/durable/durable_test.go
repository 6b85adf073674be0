package durable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/motiv"
	"adaptrm/internal/rm"
)

var ctxBG = context.Background()

// harness is one live fleet with an attached writer and a reference
// oracle: after every operation the touched device's full state is
// snapshotted in memory, keyed by event sequence, so any later
// recovery — clean, killed, or torn at an arbitrary byte — can be
// checked for byte-identical equality at whatever sequence it lands on.
type harness struct {
	t    testing.TB
	n    int
	opt  fleet.Options
	meta durable.Meta

	f   *fleet.Fleet
	w   *durable.Writer
	rng *rand.Rand

	now  []float64
	jobs [][]int
	refs []map[uint64]*rm.Snapshot
}

func testConfigs(n int) []fleet.DeviceConfig {
	devs := make([]fleet.DeviceConfig, n)
	for i := range devs {
		devs[i] = fleet.DeviceConfig{
			Platform:  motiv.Platform(),
			Library:   motiv.Library(),
			Scheduler: core.New(),
		}
	}
	return devs
}

// normSnap strips the one non-deterministic snapshot field (wall-clock
// scheduling time) so states can be compared exactly.
func normSnap(s *rm.Snapshot) *rm.Snapshot {
	c := *s
	c.SchedulingTimeNs = 0
	return &c
}

func newHarness(t testing.TB, n int, seed int64, opt fleet.Options) *harness {
	t.Helper()
	f, err := fleet.New(testConfigs(n), opt)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t: t, n: n, opt: opt,
		meta: durable.Meta{Devices: n, Scheduler: "edf-mdf"},
		f:    f,
		rng:  rand.New(rand.NewSource(seed)),
		now:  make([]float64, n),
		jobs: make([][]int, n),
		refs: make([]map[uint64]*rm.Snapshot, n),
	}
	for d := 0; d < n; d++ {
		h.refs[d] = map[uint64]*rm.Snapshot{}
		h.record(d)
	}
	return h
}

func (h *harness) attach(dir string, wopt durable.Options) *durable.State {
	h.t.Helper()
	st, err := durable.Open(dir, h.meta)
	if err != nil {
		h.t.Fatal(err)
	}
	w, err := durable.NewWriter(st, h.f, wopt)
	if err != nil {
		h.t.Fatal(err)
	}
	h.w = w
	return st
}

// record stores the oracle state of one device at its current sequence.
func (h *harness) record(d int) {
	h.t.Helper()
	snap, err := h.f.DeviceSnapshot(d)
	if err != nil {
		h.t.Fatal(err)
	}
	h.refs[d][snap.EventSeq] = normSnap(snap)
}

// drive pushes ops seeded operations through the service, recording
// the oracle after each (operations are synchronous, so the device's
// post-op state is stable when recorded — only the WAL is async).
func (h *harness) drive(ops int) {
	h.t.Helper()
	svc := h.f.Service()
	apps := []string{"lambda1", "lambda2"}
	for i := 0; i < ops; i++ {
		d := h.rng.Intn(h.n)
		switch h.rng.Intn(5) {
		case 0, 1, 2:
			r, err := svc.Submit(ctxBG, api.SubmitRequest{
				Device: d, At: h.now[d], App: apps[h.rng.Intn(len(apps))],
				Deadline: h.now[d] + 1 + h.rng.Float64()*9,
			})
			if err != nil && !errors.Is(err, api.ErrInfeasible) {
				h.t.Fatalf("submit: %v", err)
			}
			if err == nil && r.Accepted {
				h.jobs[d] = append(h.jobs[d], r.JobID)
			}
		case 3:
			h.now[d] += h.rng.Float64() * 2
			if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: d, To: h.now[d]}); err != nil {
				h.t.Fatalf("advance: %v", err)
			}
		case 4:
			if len(h.jobs[d]) == 0 {
				continue
			}
			id := h.jobs[d][h.rng.Intn(len(h.jobs[d]))]
			if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: d, JobID: id}); err != nil && !errors.Is(err, api.ErrUnknownJob) {
				h.t.Fatalf("cancel: %v", err)
			}
		}
		h.record(d)
	}
}

// catchUp waits until the WAL has appended every emitted event (the
// writer is asynchronous by design), then flushes it.
func (h *harness) catchUp() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := h.f.DeviceEventSeqs()
		got := h.w.Status().Devices
		ok := true
		for d, seq := range want {
			if got[d].LastSeq != seq {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("WAL never caught up: fleet %v, wal %+v", want, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := h.w.Sync(); err != nil {
		h.t.Fatal(err)
	}
}

// shutdown closes fleet then writer — the documented clean order. The
// fleet's Close drains every device (emitting final completion
// events), so the oracle records each device once more afterwards.
func (h *harness) shutdown() {
	h.t.Helper()
	h.f.Close()
	for d := 0; d < h.n; d++ {
		h.record(d)
	}
	if err := h.w.Close(); err != nil {
		h.t.Fatal(err)
	}
}

// recoverAndCheck opens dir, rebuilds a fleet from it, and asserts that
// every recovered device is byte-identical to the oracle at whatever
// sequence recovery landed on. Returns the recovered state, fleet and
// per-device results for callers that keep going.
func (h *harness) recoverAndCheck(dir string) (*durable.State, *fleet.Fleet, map[int]fleet.DeviceRecoveryResult) {
	h.t.Helper()
	st, err := durable.Open(dir, h.meta)
	if err != nil {
		h.t.Fatal(err)
	}
	rec := make(map[int]fleet.DeviceRecovery, len(st.Devices))
	for dev, ds := range st.Devices {
		rec[dev] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
	}
	f2, res, err := fleet.Recover(testConfigs(h.n), h.opt, rec)
	if err != nil {
		h.t.Fatal(err)
	}
	for dev := 0; dev < h.n; dev++ {
		applied := uint64(0)
		if r, ok := res[dev]; ok {
			applied = r.AppliedSeq
		}
		want, ok := h.refs[dev][applied]
		if !ok {
			h.t.Fatalf("device %d recovered to seq %d, which no operation boundary produced", dev, applied)
		}
		snap, err := f2.DeviceSnapshot(dev)
		if err != nil {
			h.t.Fatal(err)
		}
		if got := normSnap(snap); !reflect.DeepEqual(got, want) {
			h.t.Fatalf("device %d at seq %d diverges from pre-crash state:\n got  %+v\n want %+v", dev, applied, got, want)
		}
		if err := st.Truncate(dev, applied); err != nil {
			h.t.Fatal(err)
		}
	}
	return st, f2, res
}

// copyDir snapshots a data dir the way kill -9 would leave it (modulo
// torn bytes, which the torn-tail tests add by hand).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "img")
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// lastSegment returns the path of a device's newest segment file.
func lastSegment(t *testing.T, dir string, dev int) string {
	t.Helper()
	pat := filepath.Join(dir, fmt.Sprintf("dev-%04d", dev), "wal-*.log")
	segs, err := filepath.Glob(pat)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments match %s: %v", pat, err)
	}
	return segs[len(segs)-1]
}

// TestOpenMetaMismatch pins the fail-fast on reusing a data dir with a
// different fleet shape.
func TestOpenMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := durable.Open(dir, durable.Meta{Devices: 2, Scheduler: "edf-mdf"}); err != nil {
		t.Fatal(err)
	}
	_, err := durable.Open(dir, durable.Meta{Devices: 3, Scheduler: "edf-mdf"})
	if !errors.Is(err, durable.ErrMetaMismatch) {
		t.Fatalf("got %v, want ErrMetaMismatch", err)
	}
}

// TestOpenRefusesCompletionReplans: a data dir whose meta says its
// manager re-planned on every job completion holds schedule changes no
// current manager makes, so Open refuses it by name before reading any
// log.
func TestOpenRefusesCompletionReplans(t *testing.T) {
	dir := t.TempDir()
	meta := `{"version": 1, "devices": 2, "scheduler": "edf-mdf", "cache": false, "reschedule_on_finish": true}`
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := durable.Open(dir, durable.Meta{Devices: 2, Scheduler: "edf-mdf"})
	if !errors.Is(err, durable.ErrCompletionReplans) || !errors.Is(err, durable.ErrMetaMismatch) {
		t.Fatalf("got %v, want ErrCompletionReplans wrapping ErrMetaMismatch", err)
	}
}

// TestOpenParentWrittenDir recovers a version-1 data dir written by a
// build that still kept the executed timeline in every snapshot and
// recorded "reschedule_on_finish": false in its meta (testdata/v1: a
// kill image of two devices; device 0 recovers from its snapshot,
// device 1, whose snapshot was removed, replays its whole log). Each
// device must recover byte-identical to the state the writing build
// recorded live at its last sequence, minus that timeline.
func TestOpenParentWrittenDir(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "v1"))
	st, err := durable.Open(dir, durable.Meta{Devices: 2, Scheduler: "edf-mdf"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 || st.Events == 0 {
		t.Fatalf("fixture should recover one device per path: %+v", st)
	}
	rec := make(map[int]fleet.DeviceRecovery, len(st.Devices))
	for dev, ds := range st.Devices {
		rec[dev] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
	}
	f, _, err := fleet.Recover(testConfigs(2), fleet.Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for dev := 0; dev < 2; dev++ {
		raw, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("v1-want-dev-%04d.json", dev)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"executed"`)) {
			t.Fatalf("device %d: the fixture lost its executed timeline", dev)
		}
		var want rm.Snapshot
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		snap, err := f.DeviceSnapshot(dev)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(normSnap(snap))
		wantRaw, _ := json.Marshal(&want)
		if !bytes.Equal(got, wantRaw) {
			t.Errorf("device %d recovered\n got  %s\n want %s", dev, got, wantRaw)
		}
	}
}

// TestCleanShutdownRecovery is the happy path: traffic, clean close
// (final snapshot per device), reopen — every device byte-identical at
// its final sequence, recovered from snapshot plus an empty tail.
func TestCleanShutdownRecovery(t *testing.T) {
	h := newHarness(t, 3, 41, fleet.Options{Shards: 2})
	dir := t.TempDir()
	h.attach(dir, durable.Options{Fsync: durable.FsyncNever, SegmentBytes: 1 << 10, SnapshotEvery: 64})
	h.drive(160)
	h.catchUp()
	h.shutdown()
	st, f2, _ := h.recoverAndCheck(dir)
	defer f2.Close()
	if !st.Recovered || st.Snapshots != 3 {
		t.Fatalf("clean shutdown should leave a snapshot per device: %+v", st)
	}
	// The tiny segment threshold must have forced rotations.
	if ws := h.w.Status(); ws.Appended == 0 || ws.Snapshots == 0 {
		t.Fatalf("writer did no work: %+v", ws)
	}
}

// TestKillRecovery is the crash path: no Close, no final snapshot —
// the data dir is copied mid-flight (after the async writer caught up
// and flushed) exactly as kill -9 would leave it, and recovery must
// land every device byte-identical at its final sequence. A second
// round then continues on the recovered fleet — WAL appends resume
// gap-free across the restart — and a third recovery checks the
// combined history, exercising fsync=always on the continuation.
func TestKillRecovery(t *testing.T) {
	h := newHarness(t, 2, 43, fleet.Options{})
	dir := t.TempDir()
	h.attach(dir, durable.Options{Fsync: durable.FsyncIntervalPolicy, FsyncEvery: 5 * time.Millisecond, SegmentBytes: 1 << 10, SnapshotEvery: 32})
	h.drive(120)
	h.catchUp()
	img := copyDir(t, dir) // the kill: state frozen without any shutdown path
	h.f.Close()
	h.w.Close()

	_, f2, _ := h.recoverAndCheck(img)
	h.f = f2
	st2 := h.attach(img, durable.Options{Fsync: durable.FsyncAlways, SegmentBytes: 1 << 10, SnapshotEvery: 32})
	_ = st2
	h.drive(60)
	h.catchUp()
	h.shutdown()
	_, f3, _ := h.recoverAndCheck(img)
	f3.Close()
}

// TestTornTailRecovery truncates the newest segment of a crash image
// at a sweep of byte offsets: recovery must never fail, must land on
// an operation boundary at or before the tear, and must be
// byte-identical to the oracle there. This is the mid-frame-kill
// property test at the full-system level (the frame-level sweep lives
// in frame_test.go).
func TestTornTailRecovery(t *testing.T) {
	h := newHarness(t, 2, 47, fleet.Options{})
	dir := t.TempDir()
	// Huge SnapshotEvery: no snapshots exist in the crash image, so
	// recovery is log-only replay and torn tails actually bite (a clean
	// shutdown would write a final snapshot and mask them).
	h.attach(dir, durable.Options{Fsync: durable.FsyncNever, SegmentBytes: 1 << 11, SnapshotEvery: 1 << 20})
	h.drive(100)
	h.catchUp()
	base := copyDir(t, dir) // crash image: no shutdown path ran

	seg := lastSegment(t, base, 0)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	finalSeq := h.f.DeviceEventSeqs()[0]
	h.shutdown()
	cuts := []int64{0, 1, 7, info.Size() / 3, info.Size() / 2, info.Size() - 9, info.Size() - 1}
	for _, cut := range cuts {
		if cut < 0 {
			continue
		}
		img := copyDir(t, base)
		if err := os.Truncate(lastSegment(t, img, 0), cut); err != nil {
			t.Fatal(err)
		}
		st, f2, res := h.recoverAndCheck(img)
		f2.Close()
		if cut != 0 && cut < info.Size() && st.TruncatedBytes == 0 && res[0].Dropped == 0 {
			// A cut inside the file must shrink either the physical log
			// (torn frame) or the logical one (dropped partial unit) —
			// unless it happens to land exactly on a unit boundary.
			if res[0].AppliedSeq == finalSeq {
				t.Fatalf("cut %d lost nothing?", cut)
			}
		}
	}
}

// TestLagRescue starts the writer against a fleet whose retention
// window has already evicted the early history: the subscription opens
// with a Lagged marker, and the writer must rescue itself with a
// snapshot instead of failing — recovery then lands on the post-rescue
// history. Also covers recovery when snapshots exist but early
// segments do not.
func TestLagRescue(t *testing.T) {
	h := newHarness(t, 2, 53, fleet.Options{EventHistory: 16})
	h.drive(80) // well past 16 retained events per device, no writer yet
	dir := t.TempDir()
	h.attach(dir, durable.Options{Fsync: durable.FsyncNever, SnapshotEvery: 1 << 20})
	h.drive(40)
	h.catchUp()
	ws := h.w.Status()
	if ws.Rescues == 0 {
		t.Fatalf("expected at least one lag rescue: %+v", ws)
	}
	h.shutdown()
	_, f2, _ := h.recoverAndCheck(dir)
	f2.Close()
}

// BenchmarkRecovery measures cold-start recovery — segment decode plus
// deterministic replay through fleet.Recover — for a log-only data dir
// (the worst case: every event replays). Reported events/s feeds
// benchmarks/README.md.
func BenchmarkRecovery(b *testing.B) {
	h := newHarness(b, 1, 61, fleet.Options{})
	dir := b.TempDir()
	h.attach(dir, durable.Options{Fsync: durable.FsyncNever, SnapshotEvery: 1 << 20})
	h.drive(400)
	h.catchUp()
	h.shutdown()
	// Close writes a final snapshot per device; drop them so every
	// iteration replays the full log from sequence one.
	snaps, err := filepath.Glob(filepath.Join(dir, "dev-0000", "snap-*.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			b.Fatal(err)
		}
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := durable.Open(dir, h.meta)
		if err != nil {
			b.Fatal(err)
		}
		rec := make(map[int]fleet.DeviceRecovery, len(st.Devices))
		for dev, ds := range st.Devices {
			rec[dev] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
		}
		f2, _, err := fleet.Recover(testConfigs(1), h.opt, rec)
		if err != nil {
			b.Fatal(err)
		}
		events = st.Events
		f2.Close()
	}
	b.StopTimer()
	if events == 0 {
		b.Fatal("recovery replayed no events")
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// TestImmediateShutdown pins the NewWriter subscription guarantee:
// a fleet driven and closed immediately after the writer attaches —
// with no time for any goroutine to be scheduled — must still persist
// every event, because NewWriter subscribes synchronously and the
// fleet's shutdown drain delivers everything before ending streams.
func TestImmediateShutdown(t *testing.T) {
	h := newHarness(t, 2, 59, fleet.Options{})
	dir := t.TempDir()
	h.attach(dir, durable.Options{Fsync: durable.FsyncNever})
	h.drive(30)
	h.shutdown() // no catchUp: close must not outrun the tail goroutines
	want := h.f.DeviceEventSeqs()
	st, f2, res := h.recoverAndCheck(dir)
	for dev, seq := range want {
		if r := res[dev]; r.AppliedSeq != seq {
			t.Fatalf("device %d recovered to seq %d, want the full stream %d", dev, r.AppliedSeq, seq)
		}
	}
	_ = st
	f2.Close()
}
