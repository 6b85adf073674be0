// Package schedule implements the schedule representation of the paper:
// κ = {μ_i × Δ_i}, a list of mappings over consecutive time segments
// (Eq. 1). Each mapping assigns operating points to a subset of the jobs;
// jobs may change points between segments ("adaptive mapping") or be
// absent from a segment (suspended).
//
// The package provides energy accounting (objective 2a), full validation
// of the constraint system (2b–2e), segment splitting, normalization,
// concretization onto individual cores and ASCII Gantt rendering.
package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"adaptrm/internal/job"
	"adaptrm/internal/platform"
)

// Eps is the absolute tolerance used for time comparisons throughout the
// scheduling stack.
const Eps = 1e-9

// Placement maps one job to one operating point within a segment.
type Placement struct {
	// JobID identifies the job σ.
	JobID int
	// Point indexes the job's operating-point table.
	Point int
}

// Segment is one mapping μ × Δ: a set of job placements active on the
// half-open interval [Start, End).
type Segment struct {
	Start, End float64
	Placements []Placement
}

// Duration returns |Δ| = End − Start.
func (s *Segment) Duration() float64 { return s.End - s.Start }

// Find returns the index of the placement for jobID, or -1.
func (s *Segment) Find(jobID int) int {
	for i, p := range s.Placements {
		if p.JobID == jobID {
			return i
		}
	}
	return -1
}

// Usage returns the total resource vector Σθ claimed by the segment.
func (s *Segment) Usage(jobs job.Set, m int) platform.Alloc {
	u := platform.NewAlloc(m)
	for _, p := range s.Placements {
		j := jobs.ByID(p.JobID)
		if j == nil {
			continue
		}
		u.AddInPlace(j.Table.Points[p.Point].Alloc)
	}
	return u
}

// clonePlacements copies a placement list.
func clonePlacements(ps []Placement) []Placement {
	out := make([]Placement, len(ps))
	copy(out, ps)
	return out
}

// Schedule is an ordered list of consecutive mapping segments.
type Schedule struct {
	Segments []Segment
}

// Clone deep-copies the schedule.
func (k *Schedule) Clone() *Schedule {
	out := &Schedule{Segments: make([]Segment, len(k.Segments))}
	for i, s := range k.Segments {
		out.Segments[i] = Segment{Start: s.Start, End: s.End, Placements: clonePlacements(s.Placements)}
	}
	return out
}

// IsEmpty reports whether the schedule has no segments.
func (k *Schedule) IsEmpty() bool { return len(k.Segments) == 0 }

// Horizon returns the end of the last segment, or start if empty.
func (k *Schedule) Horizon(start float64) float64 {
	if len(k.Segments) == 0 {
		return start
	}
	return k.Segments[len(k.Segments)-1].End
}

// Energy evaluates objective (2a): the sum over all placements of
// ξ · |Δ| / τ, i.e. the energy of the executed fraction of each point.
func (k *Schedule) Energy(jobs job.Set) float64 {
	total := 0.0
	for i := range k.Segments {
		seg := &k.Segments[i]
		dur := seg.Duration()
		for _, p := range seg.Placements {
			j := jobs.ByID(p.JobID)
			if j == nil {
				continue
			}
			pt := j.Table.Points[p.Point]
			total += pt.Energy * dur / pt.Time
		}
	}
	return total
}

// FinishTime returns the end of the last segment in which the job
// appears, i.e. its completion time (2e's left-hand side). It returns
// NaN when the job never appears.
func (k *Schedule) FinishTime(jobID int) float64 {
	finish := math.NaN()
	for i := range k.Segments {
		if k.Segments[i].Find(jobID) >= 0 {
			finish = k.Segments[i].End
		}
	}
	return finish
}

// ExecutedFraction returns the fraction of a full run the schedule
// executes for the job: Σ |Δ|/τ over its placements (2d's left side).
func (k *Schedule) ExecutedFraction(jobID int, jobs job.Set) float64 {
	j := jobs.ByID(jobID)
	if j == nil {
		return 0
	}
	frac := 0.0
	for i := range k.Segments {
		seg := &k.Segments[i]
		if pi := seg.Find(jobID); pi >= 0 {
			pt := j.Table.Points[seg.Placements[pi].Point]
			frac += seg.Duration() / pt.Time
		}
	}
	return frac
}

// Executed returns what ran of k while a manager's clock moved from
// `from` to `to` along it: each segment clipped to that window, holding
// the jobs running at `from`, each cut at its completion time in
// finished (job id to time). A clipped segment is split at every
// distinct completion inside it, so the result never overlaps.
func (k *Schedule) Executed(running job.Set, from, to float64, finished map[int]float64) []Segment {
	var out []Segment
	for _, seg := range k.Segments {
		lo, hi := math.Max(seg.Start, from), math.Min(seg.End, to)
		if hi-lo <= Eps {
			continue
		}
		var ps []Placement
		var ends []float64 // ends[i]: when ps[i] stopped running
		for _, p := range seg.Placements {
			end, done := finished[p.JobID]
			if running.ByID(p.JobID) == nil || done && end <= lo {
				continue // not running, or completed in an earlier segment
			}
			if !done || end > hi {
				end = hi
			}
			ps, ends = append(ps, p), append(ends, end)
		}
		cuts := append([]float64(nil), ends...)
		sort.Float64s(cuts)
		prev := lo
		for _, e := range cuts {
			if e-prev <= Eps {
				continue
			}
			var live []Placement
			for i, p := range ps {
				if ends[i] >= e-Eps {
					live = append(live, p)
				}
			}
			out = append(out, Segment{Start: prev, End: e, Placements: live})
			prev = e
		}
	}
	return out
}

// Split cuts segment i at absolute time t, duplicating its placements
// into both halves. It returns an error if t is not strictly inside the
// segment (with Eps slack collapsed to a no-op: callers should not split
// at boundaries).
func (k *Schedule) Split(i int, t float64) error {
	if i < 0 || i >= len(k.Segments) {
		return fmt.Errorf("schedule: split index %d out of range", i)
	}
	seg := k.Segments[i]
	if t <= seg.Start+Eps || t >= seg.End-Eps {
		return fmt.Errorf("schedule: split point %v not inside (%v, %v)", t, seg.Start, seg.End)
	}
	first := Segment{Start: seg.Start, End: t, Placements: clonePlacements(seg.Placements)}
	second := Segment{Start: t, End: seg.End, Placements: clonePlacements(seg.Placements)}
	k.Segments = append(k.Segments, Segment{})
	copy(k.Segments[i+2:], k.Segments[i+1:])
	k.Segments[i] = first
	k.Segments[i+1] = second
	return nil
}

// Append adds a segment at the tail. The segment must start where the
// schedule currently ends (within Eps) when the schedule is non-empty.
func (k *Schedule) Append(seg Segment) error {
	if len(k.Segments) > 0 {
		end := k.Segments[len(k.Segments)-1].End
		if math.Abs(seg.Start-end) > Eps {
			return fmt.Errorf("schedule: appended segment starts at %v, schedule ends at %v", seg.Start, end)
		}
		seg.Start = end
	}
	if seg.End <= seg.Start+Eps {
		return fmt.Errorf("schedule: appended segment has non-positive duration [%v,%v)", seg.Start, seg.End)
	}
	k.Segments = append(k.Segments, seg)
	return nil
}

// Normalize merges adjacent segments whose placement sets are identical.
// Schedulers may produce splits that later become redundant; merging
// keeps Gantt output and segment counts tidy without changing semantics.
func (k *Schedule) Normalize() {
	if len(k.Segments) < 2 {
		return
	}
	out := k.Segments[:1]
	for _, seg := range k.Segments[1:] {
		last := &out[len(out)-1]
		if samePlacements(last.Placements, seg.Placements) {
			last.End = seg.End
			continue
		}
		out = append(out, seg)
	}
	k.Segments = out
}

// samePlacements reports multiset equality of two placement lists. Up to
// 64 placements it runs a quadratic matching with a bitmask — segments
// hold at most one placement per job on a handful of cores, so this is
// the allocation-free path Normalize takes on every scheduler return —
// and falls back to sorted clones beyond that.
func samePlacements(a, b []Placement) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) <= 64 {
		var used uint64
		for _, p := range a {
			found := false
			for i, q := range b {
				if used&(1<<i) == 0 && p == q {
					used |= 1 << i
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	as := clonePlacements(a)
	bs := clonePlacements(b)
	sortPlacements(as)
	sortPlacements(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortPlacements(ps []Placement) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].JobID != ps[j].JobID {
			return ps[i].JobID < ps[j].JobID
		}
		return ps[i].Point < ps[j].Point
	})
}

// Validate checks the full constraint system of the paper against the
// job set at scheduling instant t0:
//
//	structure — segments are consecutive, positive-length, start at t0;
//	(2b) — per-segment resource usage fits the platform capacity;
//	(2c) — at most one placement per job per segment;
//	(2d) — every job executes exactly its remaining ratio ρ;
//	(2e) — every job finishes by its deadline.
func (k *Schedule) Validate(plat platform.Platform, jobs job.Set, t0 float64) error {
	if len(k.Segments) == 0 {
		if len(jobs) == 0 {
			return nil
		}
		return fmt.Errorf("schedule: empty schedule for %d jobs", len(jobs))
	}
	cap := plat.Capacity()
	m := plat.NumTypes()
	if math.Abs(k.Segments[0].Start-t0) > Eps {
		return fmt.Errorf("schedule: first segment starts at %v, want %v", k.Segments[0].Start, t0)
	}
	prevEnd := t0
	for i := range k.Segments {
		seg := &k.Segments[i]
		if math.Abs(seg.Start-prevEnd) > Eps {
			return fmt.Errorf("schedule: segment %d starts at %v, previous ends at %v", i, seg.Start, prevEnd)
		}
		if seg.Duration() <= Eps {
			return fmt.Errorf("schedule: segment %d has non-positive duration %v", i, seg.Duration())
		}
		prevEnd = seg.End
		if len(seg.Placements) == 0 {
			return fmt.Errorf("schedule: segment %d is empty", i)
		}
		seen := make(map[int]bool, len(seg.Placements))
		usage := platform.NewAlloc(m)
		for _, p := range seg.Placements {
			j := jobs.ByID(p.JobID)
			if j == nil {
				return fmt.Errorf("schedule: segment %d references unknown job %d", i, p.JobID)
			}
			if seen[p.JobID] {
				return fmt.Errorf("schedule: segment %d maps job %d twice (2c)", i, p.JobID)
			}
			seen[p.JobID] = true
			if p.Point < 0 || p.Point >= j.Table.Len() {
				return fmt.Errorf("schedule: segment %d job %d: point %d out of range", i, p.JobID, p.Point)
			}
			usage.AddInPlace(j.Table.Points[p.Point].Alloc)
		}
		if !usage.Fits(cap) {
			return fmt.Errorf("schedule: segment %d usage %v exceeds capacity %v (2b)", i, usage, cap)
		}
	}
	for _, j := range jobs {
		frac := k.ExecutedFraction(j.ID, jobs)
		if math.Abs(frac-j.Remaining) > 1e-6 {
			return fmt.Errorf("schedule: job %d executes %v of remaining %v (2d)", j.ID, frac, j.Remaining)
		}
		finish := k.FinishTime(j.ID)
		if math.IsNaN(finish) {
			return fmt.Errorf("schedule: job %d never scheduled", j.ID)
		}
		if finish > j.Deadline+1e-6 {
			return fmt.Errorf("schedule: job %d finishes at %v after deadline %v (2e)", j.ID, finish, j.Deadline)
		}
	}
	return nil
}

// String renders a compact textual form, one line per segment.
func (k *Schedule) String() string {
	var b strings.Builder
	for i := range k.Segments {
		seg := &k.Segments[i]
		fmt.Fprintf(&b, "[%6.2f,%6.2f)", seg.Start, seg.End)
		ps := clonePlacements(seg.Placements)
		sortPlacements(ps)
		for _, p := range ps {
			fmt.Fprintf(&b, "  σ%d→#%d", p.JobID, p.Point)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
