// Package schedcache memoizes scheduler results across activations: when
// the runtime manager repeatedly faces the same workload shape — the same
// application mix at similar progress and deadline slack on the same
// platform — the previously computed segmented schedule is reused instead
// of re-running the MMKP-MDF solve. This is the first hot-path
// optimisation of the repo: on steady request streams most activations
// involve one or two well-known job shapes, and a solve costs orders of
// magnitude more than a signature lookup.
//
// Correctness does not depend on the signature buckets: a cached result
// is re-validated against the concrete job set (constraints 2b–2e of the
// paper) before being reused, and falls through to the wrapped scheduler
// when validation fails. The cache therefore never returns a schedule the
// solver itself would have been forbidden to return.
//
// Reuse happens at two levels. When the concrete problem matches the
// cached one exactly (same remaining ratios, deadlines no tighter), the
// memoized schedule is replayed verbatim. Otherwise — the common case for
// in-progress job sets, whose remaining ratios never repeat exactly — the
// cached operating-point assignment is re-packed with sched.PackEDF
// against the concrete remaining ratios and deadlines. Packing is linear
// in segments while the MMKP-MDF solve explores many assignments, so a
// re-pack hit still skips nearly all of the solve cost; the energy choice
// is inherited from a problem at most one bucket away.
package schedcache

import (
	"container/list"
	"fmt"
	"math"
	"strconv"
	"sync"

	"adaptrm/internal/job"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// Default bucket widths of the signature quantisation.
const (
	// DefaultProgressBucket quantises the remaining ratio ρ ∈ (0, 1].
	DefaultProgressBucket = 1.0 / 16
	// DefaultSlackBucket quantises the deadline slack δ − t in relative
	// steps: two slacks fall into the same bucket when they differ by
	// less than this fraction. Relative bucketing matches deadline
	// ranges spanning orders of magnitude; the re-pack reuse path keeps
	// coarse buckets safe, since the concrete deadlines are always
	// honoured and only the point choice is inherited.
	DefaultSlackBucket = 0.25
)

// Params tunes signature construction and cache capacity.
type Params struct {
	// Capacity bounds the number of cached schedules; once full, the
	// least-recently-used entry is evicted. Zero means DefaultCapacity.
	Capacity int
	// ProgressBucket is the quantisation width for remaining ratios;
	// zero means DefaultProgressBucket.
	ProgressBucket float64
	// SlackBucket is the relative quantisation step for deadline slack
	// (0.25 ⇒ slacks within 25% share a bucket); zero means
	// DefaultSlackBucket.
	SlackBucket float64
}

// DefaultCapacity is the cache capacity when Params.Capacity is zero.
const DefaultCapacity = 1024

func (p *Params) normalize() {
	if p.Capacity <= 0 {
		p.Capacity = DefaultCapacity
	}
	if p.ProgressBucket <= 0 {
		p.ProgressBucket = DefaultProgressBucket
	}
	if p.SlackBucket <= 0 {
		p.SlackBucket = DefaultSlackBucket
	}
}

// Stats counts cache activity. Hits are lookups whose L1-cached result
// validated against the concrete job set; SharedHits are lookups that
// missed (or failed validation in) the L1 but validated from the
// attached shared tier. Repacks counts the subset of hits — either tier
// — served by re-packing the cached assignment rather than replaying
// the schedule verbatim. Stale counts lookups that found a signature
// match which failed every reuse path (counted as misses too, since
// they trigger a solve). Promotions counts entries this cache offered
// to the shared tier that won the deterministic merge.
type Stats struct {
	Hits, Misses, Stale, Evictions, Repacks int
	SharedHits, Promotions                  int
}

// HitRate returns served lookups over all lookups, or 0 when idle.
// Shared-tier hits count as served: the solve was skipped either way.
func (s Stats) HitRate() float64 {
	served := s.Hits + s.SharedHits
	if served+s.Misses == 0 {
		return 0
	}
	return float64(served) / float64(served+s.Misses)
}

// FNV-64a parameters, hand-rolled so PlatformHash streams field bytes
// through plain arithmetic instead of hash/fnv's allocating Write path;
// the digest is byte-identical to the previous hash/fnv implementation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// PlatformHash fingerprints a platform over its full type list (name,
// count, frequency, IPC, power, DVFS levels). Equal hashes mean
// identical platforms only with overwhelming probability — it is a
// 64-bit FNV digest, not an equality proof — which is safe here solely
// because every cached result is re-validated against the concrete
// platform before reuse. Do not build validation-free sharing on it.
// The function performs no heap allocations, keeping the shared-tier
// probe path at 0 allocs/op.
func PlatformHash(p platform.Platform) uint64 {
	h := uint64(fnvOffset64)
	var tmp [32]byte
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
		h = (h ^ 0) * fnvPrime64 // NUL field separator
	}
	writeBytes := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * fnvPrime64
		}
		h = (h ^ 0) * fnvPrime64
	}
	writeFloat := func(f float64) { writeBytes(strconv.AppendFloat(tmp[:0], f, 'g', -1, 64)) }
	write(p.Name)
	for _, t := range p.Types {
		write(t.Name)
		writeBytes(strconv.AppendInt(tmp[:0], int64(t.Count), 10))
		writeFloat(t.FreqHz)
		writeFloat(t.IPC)
		writeFloat(t.StaticWatts)
		writeFloat(t.DynamicWatts)
		for _, l := range t.Levels {
			writeFloat(l.FreqHz)
			writeFloat(l.VoltScale)
		}
	}
	return h
}

// sigEntry is one job's contribution to a signature.
type sigEntry struct {
	table    string
	progress int // bucketed remaining ratio
	slack    int // bucketed deadline slack
}

// Signature is the canonical cache key of a scheduling problem: the
// platform fingerprint plus the multiset of job shapes (table name,
// progress bucket, slack bucket), order-independent over the job set.
type Signature string

// NewSignature canonicalises (jobs, plat, t) into a Signature. Job IDs
// and absolute times do not participate: two problems with the same
// shapes at different instants share a signature.
func NewSignature(jobs job.Set, plat platform.Platform, t float64, p Params) Signature {
	p.normalize()
	entries, order := canonical(jobs, t, p)
	return signature(plat, entries, order)
}

func signature(plat platform.Platform, entries []sigEntry, order []int) Signature {
	return Signature(appendSignature(nil, plat, entries, order))
}

// appendSignature emits the signature bytes into dst: the platform
// fingerprint followed by the job entries in canonical order. entries
// is indexed through order, so callers never materialise a sorted copy.
func appendSignature(dst []byte, plat platform.Platform, entries []sigEntry, order []int) []byte {
	dst = strconv.AppendUint(dst, PlatformHash(plat), 16)
	for _, idx := range order {
		e := &entries[idx]
		dst = append(dst, '|')
		dst = append(dst, e.table...)
		dst = append(dst, ';')
		dst = strconv.AppendInt(dst, int64(e.progress), 10)
		dst = append(dst, ';')
		dst = strconv.AppendInt(dst, int64(e.slack), 10)
	}
	return dst
}

// slackBucket maps a slack to its logarithmic bucket index: slacks
// within a factor of (1 + width) share an index. Non-positive slack
// (which no feasible schedule can serve anyway) collapses to a sentinel.
func slackBucket(slack, width float64) int {
	if slack <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log(slack) / math.Log1p(width)))
}

// canonical buckets every job and sorts by (table, progress bucket,
// slack bucket), breaking exact ties by (remaining, deadline, ID). It
// returns the bucketed entries (in job order — index them through the
// permutation) together with the job indices in canonical order (the
// placement-remapping basis), so the bucket and ordering logic exists
// exactly once.
func canonical(jobs job.Set, t float64, p Params) ([]sigEntry, []int) {
	entries := fillEntries(make([]sigEntry, 0, len(jobs)), jobs, t, p)
	order := make([]int, len(jobs))
	sortOrder(entries, jobs, order)
	return entries, order
}

// fillEntries appends one bucketed sigEntry per job to dst.
func fillEntries(dst []sigEntry, jobs job.Set, t float64, p Params) []sigEntry {
	for _, j := range jobs {
		dst = append(dst, sigEntry{
			table:    j.Table.Name(),
			progress: int(math.Round(j.Remaining / p.ProgressBucket)),
			slack:    slackBucket(j.Slack(t), p.SlackBucket),
		})
	}
	return dst
}

// sortOrder fills order with 0..n-1 and insertion-sorts it into
// canonical order. Insertion sort keeps the scratch path allocation-free
// (sort.Slice allocates its swapper) and job sets are small enough that
// the quadratic worst case never dominates a solve.
func sortOrder(entries []sigEntry, jobs job.Set, order []int) {
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && canonLess(entries, jobs, order[k], order[k-1]); k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
}

// canonLess reports whether job a precedes job b in canonical order.
func canonLess(entries []sigEntry, jobs job.Set, a, b int) bool {
	ea, eb := &entries[a], &entries[b]
	if ea.table != eb.table {
		return ea.table < eb.table
	}
	if ea.progress != eb.progress {
		return ea.progress < eb.progress
	}
	if ea.slack != eb.slack {
		return ea.slack < eb.slack
	}
	ja, jb := jobs[a], jobs[b]
	if ja.Remaining != jb.Remaining {
		return ja.Remaining < jb.Remaining
	}
	if ja.Deadline != jb.Deadline {
		return ja.Deadline < jb.Deadline
	}
	return ja.ID < jb.ID
}

// sigScratch holds the reusable buffers of an allocation-free signature
// build: bucketed entries, the canonical permutation and the signature
// bytes. The returned byte slice aliases buf and is valid until the
// next build.
type sigScratch struct {
	entries []sigEntry
	order   []int
	buf     []byte
}

func (sc *sigScratch) signature(jobs job.Set, plat platform.Platform, t float64, p Params) []byte {
	sc.entries = fillEntries(sc.entries[:0], jobs, t, p)
	if cap(sc.order) < len(jobs) {
		sc.order = make([]int, len(jobs))
	}
	sc.order = sc.order[:len(jobs)]
	sortOrder(sc.entries, jobs, sc.order)
	sc.buf = appendSignature(sc.buf[:0], plat, sc.entries, sc.order)
	return sc.buf
}

// entry is one cached result in canonical form: segment times are
// relative to the scheduling instant and placements reference canonical
// job positions instead of concrete job IDs. When every job used exactly
// one operating point throughout the schedule (always true for MMKP-MDF
// output), assignment[pos] holds that point index and enables the
// re-pack reuse path; otherwise assignment is nil and only verbatim
// replay applies.
type entry struct {
	sig        Signature
	segments   []schedule.Segment // Start/End relative to t0; JobID = canonical index
	assignment []int              // per canonical position; nil when points vary
	njobs      int
	// exact marks a schedule produced by an exact solver (StoreExact,
	// i.e. the anytime refiner). Eviction prefers sacrificing heuristic
	// entries: an exact result cost a budgeted branch-and-bound search,
	// a heuristic one is a µs re-solve away.
	exact bool
}

// Cache is a goroutine-safe LRU of canonicalised schedules, optionally
// backed by a fleet-wide Shared second tier.
type Cache struct {
	mu     sync.Mutex
	params Params
	lru    *list.List // front = most recent; values are *entry
	index  map[Signature]*list.Element
	stats  Stats
	shared *Shared // nil when the cache runs standalone

	// packMu guards the shared re-pack scratch. Lookups acquire it with
	// TryLock so the common single-caller path re-packs allocation-free
	// while concurrent lookups fall back to fresh scratch.
	packMu sync.Mutex
	packer sched.Packer
	dense  sched.DenseAssignment

	// sigMu guards the signature scratch under the same TryLock
	// discipline; the shared-tier probe path builds its signature here
	// with zero heap allocations (pinned by BenchmarkSharedTierLookup).
	sigMu   sync.Mutex
	scratch sigScratch
}

// New creates a cache with the given parameters.
func New(p Params) *Cache {
	p.normalize()
	return &Cache{
		params: p,
		lru:    list.New(),
		index:  make(map[Signature]*list.Element),
	}
}

// Params returns the normalised cache parameters.
func (c *Cache) Params() Params { return c.params }

// Len returns the number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AttachShared backs the cache with a fleet-wide second tier. Attach
// before traffic starts; lookups snapshot the pointer under the cache
// lock, so attaching mid-flight is safe but leaves concurrent lookups
// on whichever tier they observed.
func (c *Cache) AttachShared(s *Shared) {
	c.mu.Lock()
	c.shared = s
	c.mu.Unlock()
}

// SharedTier returns the attached shared tier, or nil.
func (c *Cache) SharedTier() *Shared {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared
}

// ProbeSearched reports whether a refinement search of (jobs, plat, t)
// at the given node budget has nothing left to find: the shared tier
// holds an exact entry for the signature, or a search record at least
// that deep (see RecordSearched). It reconstructs no schedule and leaves
// the hit counters alone. The anytime refiner uses it to skip searches
// whose outcome is already fleet-visible; the probe performs zero heap
// allocations (signature built in cache scratch, pinned by
// BenchmarkSharedTierLookup).
func (c *Cache) ProbeSearched(jobs job.Set, plat platform.Platform, t float64, budget int64) bool {
	skip := false
	c.withSharedSig(jobs, plat, t, func(shared *Shared, sig []byte) {
		skip = shared.probeBytes(sig, budget)
	})
	return skip
}

// RecordSearched remembers in the shared tier that an exact search of
// (jobs, plat, t) was pushed to depth nodes without beating its
// incumbent — SearchComplete when it ran to completion. The record
// belongs to the signature, merges by max and rides the warm file.
func (c *Cache) RecordSearched(jobs job.Set, plat platform.Platform, t float64, depth int64) {
	c.withSharedSig(jobs, plat, t, func(shared *Shared, sig []byte) {
		shared.recordBytes(sig, depth)
	})
}

// withSharedSig calls fn with the attached shared tier and the signature
// bytes of (jobs, plat, t), valid only during the call; without a tier
// it does nothing. The signature is built in the cache's scratch when no
// other caller holds it, which keeps the common path allocation-free.
func (c *Cache) withSharedSig(jobs job.Set, plat platform.Platform, t float64, fn func(*Shared, []byte)) {
	shared := c.SharedTier()
	if shared == nil {
		return
	}
	if c.sigMu.TryLock() {
		defer c.sigMu.Unlock()
		fn(shared, c.scratch.signature(jobs, plat, t, c.params))
		return
	}
	entries, order := canonical(jobs, t, c.params)
	fn(shared, appendSignature(nil, plat, entries, order))
}

// Lookup returns a schedule for (jobs, plat, t) reconstructed from a
// cached canonical entry, or ok=false on a miss. Verbatim replay is
// tried first (exact progress match); when it fails, the cached
// operating-point assignment is re-packed against the concrete job set.
// When the L1 entry fails every reuse path the attached shared tier is
// consulted the same way — a shared hit is re-installed into the L1 so
// later lookups stay local. A signature match failing every path is
// reported as a miss (and counted in Stats.Stale); the stale entry
// stays cached, since other job sets in the same bucket may validate.
func (c *Cache) Lookup(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, bool) {
	entries, order := canonical(jobs, t, c.params)
	return c.lookup(signature(plat, entries, order), order, jobs, plat, t)
}

// lookup is Lookup with the signature and canonical order precomputed,
// so the wrapper's miss path reuses them for the store: a full miss
// costs exactly one signature build across both tiers and the store.
func (c *Cache) lookup(sig Signature, order []int, jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, bool) {
	c.mu.Lock()
	el, found := c.index[sig]
	var e *entry
	if found {
		c.lru.MoveToFront(el)
		e = el.Value.(*entry)
	}
	shared := c.shared
	c.mu.Unlock()
	if found {
		if k, repacked, ok := c.tryReuse(e, jobs, order, plat, t); ok {
			c.hit(repacked)
			return k, true
		}
	}
	if shared != nil {
		if se, ok := shared.get(sig); ok {
			le := &entry{sig: sig, segments: se.segments, assignment: se.assignment, njobs: se.njobs}
			if k, repacked, ok := c.tryReuse(le, jobs, order, plat, t); ok {
				c.install(sig, le)
				c.sharedHit(repacked)
				return k, true
			}
			found = true // shared entry existed but failed validation: stale
		}
	}
	if found {
		c.stale()
	} else {
		c.miss()
	}
	return nil, false
}

// tryReuse attempts both reuse paths of a canonical entry against the
// concrete job set: verbatim reconstruction first, then re-packing the
// cached operating-point assignment. Either way the result is validated
// before being reported usable.
func (c *Cache) tryReuse(e *entry, jobs job.Set, order []int, plat platform.Platform, t float64) (*schedule.Schedule, bool, bool) {
	if k, err := c.reconstruct(e, jobs, order, t); err == nil {
		if err := k.Validate(plat, jobs, t); err == nil {
			return k, false, true
		}
	}
	if k, err := c.repack(e, jobs, order, plat, t); err == nil {
		if err := k.Validate(plat, jobs, t); err == nil {
			return k, true, true
		}
	}
	return nil, false, false
}

// repack rebuilds a schedule from the cached operating-point assignment
// via EDF packing against the concrete remaining ratios and deadlines,
// reusing the cache's packer scratch when no other lookup holds it.
func (c *Cache) repack(e *entry, jobs job.Set, order []int, plat platform.Platform, t float64) (*schedule.Schedule, error) {
	if e.assignment == nil || e.njobs != len(jobs) {
		return nil, fmt.Errorf("schedcache: no assignment for %d jobs", len(jobs))
	}
	var packer *sched.Packer
	var dense sched.DenseAssignment
	if c.packMu.TryLock() {
		packer, dense = &c.packer, c.dense
		defer func() {
			c.dense = dense
			c.packMu.Unlock()
		}()
	} else {
		packer = &sched.Packer{}
	}
	dense = dense.Resize(len(jobs))
	for pos, pt := range e.assignment {
		dense[order[pos]] = int32(pt)
	}
	packer.Reset(plat)
	if err := packer.Pack(jobs, dense, t); err != nil {
		return nil, err
	}
	return packer.Schedule(), nil
}

// Store canonicalises and caches the schedule computed for (jobs, t),
// evicting the least-recently-used entry when over capacity. When a
// shared tier is attached the entry is also offered to it under the
// deterministic merge, marked as a heuristic (non-exact) result.
func (c *Cache) Store(jobs job.Set, plat platform.Platform, t float64, k *schedule.Schedule) {
	entries, order := canonical(jobs, t, c.params)
	c.store(signature(plat, entries, order), order, jobs, t, k, false)
}

// StoreExact canonicalises and caches a schedule produced by an exact
// solver (the anytime refiner), replacing the L1 entry and promoting to
// the shared tier with the exact flag set so merges prefer it over a
// heuristic result of equal energy.
func (c *Cache) StoreExact(jobs job.Set, plat platform.Platform, t float64, k *schedule.Schedule) {
	entries, order := canonical(jobs, t, c.params)
	c.store(signature(plat, entries, order), order, jobs, t, k, true)
}

// store is Store with the signature and canonical order precomputed.
func (c *Cache) store(sig Signature, order []int, jobs job.Set, t float64, k *schedule.Schedule, exact bool) {
	pos := make(map[int]int, len(order)) // job ID -> canonical position
	for ci, idx := range order {
		pos[jobs[idx].ID] = ci
	}
	segs := make([]schedule.Segment, 0, len(k.Segments))
	assignment := make([]int, len(jobs))
	for i := range assignment {
		assignment[i] = -1
	}
	for _, seg := range k.Segments {
		ps := make([]schedule.Placement, 0, len(seg.Placements))
		for _, p := range seg.Placements {
			ci, ok := pos[p.JobID]
			if !ok {
				return // foreign job ID: refuse to cache
			}
			if assignment != nil {
				switch assignment[ci] {
				case -1, p.Point:
					assignment[ci] = p.Point
				default:
					assignment = nil // job switches points: verbatim-only entry
				}
			}
			ps = append(ps, schedule.Placement{JobID: ci, Point: p.Point})
		}
		segs = append(segs, schedule.Segment{Start: seg.Start - t, End: seg.End - t, Placements: ps})
	}
	if assignment != nil {
		for _, a := range assignment {
			if a == -1 {
				assignment = nil // job never scheduled: cannot re-pack
				break
			}
		}
	}
	e := &entry{sig: sig, segments: segs, assignment: assignment, njobs: len(jobs), exact: exact}
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	if shared != nil {
		se := &sharedEntry{
			segments:   segs,
			assignment: assignment,
			njobs:      len(jobs),
			energy:     k.Energy(jobs),
			exact:      exact,
		}
		if shared.promote(sig, se) {
			c.mu.Lock()
			c.stats.Promotions++
			c.mu.Unlock()
		}
	}
	c.install(sig, e)
}

// install inserts (or replaces) an L1 entry, evicting when over
// capacity. Eviction is refinement-aware LRU: the victim is the
// least-recently-used heuristic entry, so exact results — each bought
// with a budgeted background search — stay hot under pressure; only
// when every entry is exact does plain LRU apply. An all-exact cache
// thrashing its tail is still strictly better than re-running the
// searches that filled it.
func (c *Cache) install(sig Signature, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[sig]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.index[sig] = c.lru.PushFront(e)
	for c.lru.Len() > c.params.Capacity {
		victim := c.lru.Back()
		for el := victim; el != nil; el = el.Prev() {
			if !el.Value.(*entry).exact {
				victim = el
				break
			}
		}
		c.lru.Remove(victim)
		delete(c.index, victim.Value.(*entry).sig)
		c.stats.Evictions++
	}
}

// reconstruct rebinds a canonical entry to the concrete job set at
// instant t: canonical positions map to the job set's canonical order and
// segment times shift by t.
func (c *Cache) reconstruct(e *entry, jobs job.Set, order []int, t float64) (*schedule.Schedule, error) {
	if e.njobs != len(jobs) {
		return nil, fmt.Errorf("schedcache: entry for %d jobs, got %d", e.njobs, len(jobs))
	}
	k := &schedule.Schedule{Segments: make([]schedule.Segment, len(e.segments))}
	for i, seg := range e.segments {
		ps := make([]schedule.Placement, len(seg.Placements))
		for pi, p := range seg.Placements {
			if p.JobID < 0 || p.JobID >= len(order) {
				return nil, fmt.Errorf("schedcache: canonical index %d out of range", p.JobID)
			}
			ps[pi] = schedule.Placement{JobID: jobs[order[p.JobID]].ID, Point: p.Point}
		}
		k.Segments[i] = schedule.Segment{Start: seg.Start + t, End: seg.End + t, Placements: ps}
	}
	return k, nil
}

func (c *Cache) sharedHit(repacked bool) {
	c.mu.Lock()
	c.stats.SharedHits++
	if repacked {
		c.stats.Repacks++
	}
	c.mu.Unlock()
}

func (c *Cache) hit(repacked bool) {
	c.mu.Lock()
	c.stats.Hits++
	if repacked {
		c.stats.Repacks++
	}
	c.mu.Unlock()
}

func (c *Cache) miss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

func (c *Cache) stale() {
	c.mu.Lock()
	c.stats.Misses++
	c.stats.Stale++
	c.mu.Unlock()
}
