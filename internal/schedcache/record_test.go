package schedcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
)

// A search that found nothing closes its shape to every search no deeper
// than it was: a completed one for good, a budget-exhausted one until the
// budget grows. A heuristic entry alone closes nothing.
func TestProbeSearchedSkipsByRecord(t *testing.T) {
	plat := motiv.Platform()
	newCache := func() (*Cache, job.Set) {
		c := New(Params{})
		c.AttachShared(NewShared())
		jobs := job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}
		k, err := core.New().Schedule(jobs, plat, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Store(jobs, plat, 0, k)
		return c, jobs
	}

	c, jobs := newCache()
	if c.ProbeSearched(jobs, plat, 0, 500) {
		t.Fatal("probe skips a shape nobody searched")
	}
	c.RecordSearched(jobs, plat, 0, 500)
	if !c.ProbeSearched(jobs, plat, 0, 500) {
		t.Error("probe does not skip at the budget a search already exhausted")
	}
	if !c.ProbeSearched(jobs, plat, 0, 100) {
		t.Error("probe does not skip at a smaller budget than the one exhausted")
	}
	if c.ProbeSearched(jobs, plat, 0, 501) {
		t.Error("probe skips at a larger budget than the one exhausted")
	}
	// The same shape met later under other job IDs shares the record.
	later := job.Set{testJob(8, "lambda2", 5, 10, 1), testJob(9, "lambda1", 5, 14, 1)}
	if !c.ProbeSearched(later, plat, 5, 500) {
		t.Error("record not shared across instances of the shape")
	}
	// A shallower record never lowers a deeper one.
	c.RecordSearched(jobs, plat, 0, 10)
	if !c.ProbeSearched(jobs, plat, 0, 500) {
		t.Error("a shallower record lowered the deeper one")
	}
	if st := c.SharedTier().Stats(); st.SearchedToBudget != 1 || st.SearchedToCompletion != 0 {
		t.Errorf("stats = %+v, want one entry searched to budget", st)
	}

	c.RecordSearched(jobs, plat, 0, SearchComplete)
	if !c.ProbeSearched(jobs, plat, 0, 1<<40) {
		t.Error("probe does not skip a shape searched to completion")
	}
	if st := c.SharedTier().Stats(); st.SearchedToBudget != 0 || st.SearchedToCompletion != 1 {
		t.Errorf("stats = %+v, want one entry searched to completion", st)
	}

	// A record for a shape with no entry is dropped, not invented.
	unknown := job.Set{testJob(3, "lambda1", 0, 30, 1)}
	c.RecordSearched(unknown, plat, 0, SearchComplete)
	if c.ProbeSearched(unknown, plat, 0, 1) || c.SharedTier().Len() != 1 {
		t.Error("record created an entry for an unknown shape")
	}

	// Without a shared tier both calls are no-ops.
	solo := New(Params{})
	solo.RecordSearched(jobs, plat, 0, SearchComplete)
	if solo.ProbeSearched(jobs, plat, 0, 1) {
		t.Error("probe skipped without a shared tier")
	}

	// The record outlives the entry it was made on and the warm file.
	c, jobs = newCache()
	c.RecordSearched(jobs, plat, 0, 500)
	k, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreExact(jobs, plat, 0, k) // same energy, exact: replaces the entry
	warmed := NewShared()
	if err := warmed.Load(bytes.NewReader(saveBytes(t, c.SharedTier()))); err != nil {
		t.Fatal(err)
	}
	if st := warmed.Stats(); st.ExactEntries != 1 || st.SearchedToBudget != 1 {
		t.Errorf("after replacement and reload stats = %+v, want the exact entry with its record", st)
	}
}

// Random interleavings of promotions, records and loads of the same
// inputs must converge on byte-identical Save output: the search record
// merges by max and follows the signature, whichever entry wins it.
func TestSharedMergeWithRecordsOrderIndependent(t *testing.T) {
	const nsig = 6
	sig := func(i int) Signature { return Signature(fmt.Sprintf("sig-%d", i)) }
	// A warm file that overlaps the live offers with better, worse and
	// equal entries, some carrying records.
	file := NewShared()
	for i := 0; i < nsig; i++ {
		e := sharedFixtureEntry(float64(1+i%3), i%2 == 0, i)
		e.searched = []int64{0, 300, SearchComplete}[i%3]
		file.promote(sig(i), e)
	}
	fileBytes := saveBytes(t, file)

	var steps []func(*Shared)
	for i := 0; i < nsig; i++ {
		i := i
		for _, energy := range []float64{3, 2, 1} {
			for _, exact := range []bool{false, true} {
				energy, exact := energy, exact
				steps = append(steps, func(s *Shared) { s.promote(sig(i), sharedFixtureEntry(energy, exact, i)) })
			}
		}
		for _, depth := range []int64{100, 500, SearchComplete} {
			if i%2 == 1 && depth == SearchComplete {
				continue // odd signatures stay searched-to-budget
			}
			depth := depth
			steps = append(steps, func(s *Shared) { s.recordBytes([]byte(sig(i)), depth) })
		}
	}
	steps = append(steps, func(s *Shared) {
		if err := s.Load(bytes.NewReader(fileBytes)); err != nil {
			t.Error(err)
		}
	})

	run := func(order []int) []byte {
		s := NewShared()
		// Admission stores before it offers a refinement, so a record
		// always finds an entry: every signature starts with one.
		for i := 0; i < nsig; i++ {
			s.promote(sig(i), sharedFixtureEntry(9, false, i))
		}
		for _, k := range order {
			steps[k](s)
		}
		return saveBytes(t, s)
	}
	rng := rand.New(rand.NewSource(14))
	want := run(rng.Perm(len(steps)))
	for _, rec := range []int64{500, SearchComplete} {
		if !bytes.Contains(want, []byte(fmt.Sprintf(`"searched":%d`, rec))) {
			t.Fatalf("no record %d in the saved tier:\n%s", rec, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		if got := run(rng.Perm(len(steps))); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: interleaving changed the saved tier:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// referenceSave is the encoder Save replaced — the whole tier marshalled
// as one document — kept as the byte-for-byte reference for the
// streaming writer. It knows nothing of search records.
func referenceSave(w io.Writer, s *Shared) error {
	type file struct {
		Version int               `json:"version"`
		Entries []sharedWireEntry `json:"entries"`
	}
	s.mu.RLock()
	sigs := make([]string, 0, len(s.entries))
	for sig := range s.entries {
		sigs = append(sigs, string(sig))
	}
	sort.Strings(sigs)
	out := file{Version: 1, Entries: make([]sharedWireEntry, 0, len(sigs))}
	for _, sig := range sigs {
		out.Entries = append(out.Entries, s.entries[Signature(sig)].wire(sig, 0))
	}
	s.mu.RUnlock()
	return json.NewEncoder(w).Encode(out)
}

// Save of a tier without records writes exactly what the one-document
// encoder wrote, down to the empty tier and signatures that need JSON
// escaping.
func TestSaveMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 257} {
		s := NewShared()
		for i := 0; i < n; i++ {
			e := sharedFixtureEntry(rng.Float64()*40, rng.Intn(3) == 0, rng.Intn(5))
			switch rng.Intn(3) {
			case 0:
				e.assignment = nil // verbatim-only entry
			case 1:
				e.segments = append(e.segments, schedule.Segment{Start: 1, End: 1 + rng.Float64()}) // idle tail
			}
			s.promote(Signature(fmt.Sprintf("%x|<app&%d>;16;%d", rng.Uint64(), i, rng.Intn(20)-5)), e)
		}
		var want bytes.Buffer
		if err := referenceSave(&want, s); err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, s); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d entries: streaming Save differs from the reference encoder:\n%s\nvs\n%s", n, got, want.Bytes())
		}
	}
}

// A warm file written before search records existed loads, serves and
// saves back byte-identically.
func TestWarmFileWithoutRecordsCompatible(t *testing.T) {
	old, err := os.ReadFile("testdata/warm-v1-no-records.json")
	if err != nil {
		t.Fatal(err)
	}
	tier := NewShared()
	if err := tier.Load(bytes.NewReader(old)); err != nil {
		t.Fatalf("pre-record warm file refused: %v", err)
	}
	st := tier.Stats()
	if st.Entries != 5 || st.Loaded != 5 || st.ExactEntries != 1 || st.SearchedToBudget+st.SearchedToCompletion != 0 {
		t.Fatalf("loaded tier stats = %+v, want 5 entries, 1 exact, no records", st)
	}
	if got := saveBytes(t, tier); !bytes.Equal(got, old) {
		t.Fatalf("re-saved file differs:\n%s\nvs\n%s", got, old)
	}

	plat := motiv.Platform()
	c := New(Params{})
	c.AttachShared(tier)
	jobs := job.Set{testJob(10, "lambda1", 0, 9, 1), testJob(11, "lambda2", 0, 5, 1)}
	k, ok := c.Lookup(jobs, plat, 0)
	if !ok {
		t.Fatal("loaded tier did not serve a shape the file holds")
	}
	if err := k.Validate(plat, jobs, 0); err != nil {
		t.Fatalf("served schedule invalid: %v", err)
	}
	if cs := c.Stats(); cs.SharedHits != 1 {
		t.Fatalf("cache stats = %+v, want one shared hit", cs)
	}
	// The file's one exact entry closes its shape; the heuristic ones
	// leave theirs open.
	if !c.ProbeSearched(job.Set{testJob(12, "lambda1", 0, 9, 1)}, plat, 0, 500) {
		t.Error("exact entry from the old file does not close its shape")
	}
	if c.ProbeSearched(jobs, plat, 0, 500) {
		t.Error("heuristic entry from the old file closes its shape")
	}
}

// Refiner workers record into the tier while shard workers promote and
// probe and an operator saves it: run under -race this is the check that
// the one mutable field of an entry never escapes the tier lock, and the
// merge's order-independence makes the outcome checkable — whatever the
// interleaving, the tier ends where a sequential run ends.
func TestSearchRecordsConcurrent(t *testing.T) {
	plat := motiv.Platform()
	shapes := []job.Set{
		{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)},
		{testJob(3, "lambda1", 0, 30, 1)},
		{testJob(4, "lambda2", 0, 12, 1)},
	}
	work := func(c *Cache, w int) {
		for i, jobs := range shapes {
			k, err := core.New().Schedule(jobs, plat, 0)
			if err != nil {
				t.Error(err)
				return
			}
			c.Store(jobs, plat, 0, k)
			c.RecordSearched(jobs, plat, 0, int64(100*(w+1)))
			if i == w%len(shapes) {
				c.RecordSearched(jobs, plat, 0, SearchComplete)
			}
			if !c.ProbeSearched(jobs, plat, 0, 100) {
				t.Errorf("worker %d: own record not visible", w)
			}
			if _, ok := c.Lookup(jobs, plat, 0); !ok {
				t.Errorf("worker %d: lookup missed", w)
			}
		}
	}
	const workers = 4
	sequential := NewShared()
	for w := 0; w < workers; w++ {
		c := New(Params{})
		c.AttachShared(sequential)
		work(c, w)
	}

	tier := NewShared()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := New(Params{})
		c.AttachShared(tier)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(c, w)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := tier.Save(io.Discard); err != nil {
				t.Error(err)
			}
			tier.Stats()
		}
	}()
	wg.Wait()
	if got, want := saveBytes(t, tier), saveBytes(t, sequential); !bytes.Equal(got, want) {
		t.Fatalf("concurrent run ended elsewhere than the sequential one:\n%s\nvs\n%s", got, want)
	}
}
