package schedcache

// The shared tier: a fleet-wide, read-mostly second-level store behind
// the per-device LRU caches. The per-device cache stays the hot L1 —
// private, LRU-bounded, touched on every activation — while the shared
// tier holds one canonical entry per signature for the whole fleet, so
// a schedule solved once on any device (or precomputed offline by an
// exact solver) serves every device with the same platform.
//
// Determinism is preserved by construction rather than by locking
// discipline: Promote is a deterministic merge — the lowest-energy
// entry wins, ties broken by the canonical byte encoding of the entry —
// which is commutative, associative and idempotent, so the tier's final
// contents do not depend on the order devices raced their promotions
// in. Every lookup result is still re-validated against the concrete
// job set before reuse (the package invariant), so sharing never
// returns a schedule the solver would have been forbidden to return.
//
// Besides its winning schedule every signature carries a search record:
// how many nodes an exact refinement search of that shape has been
// pushed to without beating its incumbent (SearchComplete when the
// search ran out of tree before it ran out of budget). The record is a
// property of the shape, not of the schedule that currently wins the
// entry: it merges by max and survives entry replacement, so it does not
// depend on promotion order either. The anytime refiner's probe skips a
// shape whose record reaches its budget; only a larger budget re-opens
// it.
//
// Save/Load serialise the tier as canonical JSON sorted by signature:
// warming a fresh tier from a file and merging the same entries live
// produce byte-identical Save output, which is what the offline
// warm-cache workflow (rmserve -cache-warm, scripts/warm-cache.sh)
// leans on. Both stream one entry at a time, so neither holds more than
// one entry's wire form beside the tier itself.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"adaptrm/internal/schedule"
)

// SearchComplete is the search-record depth of a refinement search that
// ran to completion: it proved its incumbent optimal, so no budget
// re-opens the shape.
const SearchComplete int64 = math.MaxInt64

// sharedEntry is one canonical entry of the shared tier. The canonical
// form matches the L1 entry (segment times relative to the scheduling
// instant, placements over canonical job positions) plus the merge
// metadata: the energy of the schedule as solved and whether an exact
// solver produced it. Those fields are immutable once the entry is
// published, so lookups use them outside the lock.
type sharedEntry struct {
	segments   []schedule.Segment
	assignment []int
	njobs      int
	energy     float64
	exact      bool
	// searched is the signature's search record (0: none). It is the one
	// field that changes after publication; Shared.mu guards it.
	searched int64
}

// better reports whether e should replace old under the deterministic
// merge order: strictly lower energy wins; at equal energy an exact
// entry beats a heuristic one; remaining ties break on the canonical
// byte encoding (smaller wins), giving a total order.
func (e *sharedEntry) better(old *sharedEntry) bool {
	if e.energy != old.energy {
		return e.energy < old.energy
	}
	if e.exact != old.exact {
		return e.exact
	}
	return string(e.encode(nil)) < string(old.encode(nil))
}

// encode appends the entry's canonical byte form (used only for merge
// tie-breaking; Save has its own JSON form).
func (e *sharedEntry) encode(b []byte) []byte {
	b = strconv.AppendInt(b, int64(e.njobs), 10)
	for _, a := range e.assignment {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(a), 10)
	}
	for _, seg := range e.segments {
		b = append(b, '|')
		b = strconv.AppendFloat(b, seg.Start, 'g', -1, 64)
		b = append(b, ';')
		b = strconv.AppendFloat(b, seg.End, 'g', -1, 64)
		for _, p := range seg.Placements {
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(p.JobID), 10)
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(p.Point), 10)
		}
	}
	return b
}

// SharedStats snapshots the tier-global counters. Hits/Misses count
// lookups that fell through the L1 caches; Promotions counts accepted
// merges (inserts and replacements), PromotionsDropped offers that lost
// the merge. Loaded counts entries accepted from Load.
// SearchedToCompletion and SearchedToBudget count the entries whose
// search record says a refinement search proved the incumbent optimal,
// respectively gave up at its node budget.
type SharedStats struct {
	Entries, ExactEntries         int
	SearchedToCompletion          int
	SearchedToBudget              int
	Hits, Misses                  int64
	Promotions, PromotionsDropped int64
	Loaded                        int64
}

// Shared is the fleet-wide second-level schedule store. All methods are
// goroutine-safe; lookups take a read lock and allocate nothing.
type Shared struct {
	mu      sync.RWMutex
	entries map[Signature]*sharedEntry

	hits, misses       atomic.Int64
	promos, promoDrops atomic.Int64
	loaded             atomic.Int64
}

// NewShared creates an empty shared tier.
func NewShared() *Shared {
	return &Shared{entries: make(map[Signature]*sharedEntry)}
}

// Len returns the number of entries in the tier.
func (s *Shared) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats snapshots the tier counters.
func (s *Shared) Stats() SharedStats {
	s.mu.RLock()
	var exact, complete, budget int
	for _, e := range s.entries {
		if e.exact {
			exact++
		}
		switch {
		case e.searched == SearchComplete:
			complete++
		case e.searched > 0:
			budget++
		}
	}
	n := len(s.entries)
	s.mu.RUnlock()
	return SharedStats{
		Entries:              n,
		ExactEntries:         exact,
		SearchedToCompletion: complete,
		SearchedToBudget:     budget,
		Hits:                 s.hits.Load(),
		Misses:               s.misses.Load(),
		Promotions:           s.promos.Load(),
		PromotionsDropped:    s.promoDrops.Load(),
		Loaded:               s.loaded.Load(),
	}
}

// get returns the entry at sig, counting the outcome. Promotions
// replace the pointer and never touch the schedule fields, so callers
// may read those outside the lock. Zero allocations: the key is
// indexed via the compiler's byteslice-to-string map elision when
// called with Signature(scratch).
func (s *Shared) get(sig Signature) (*sharedEntry, bool) {
	s.mu.RLock()
	e, ok := s.entries[sig]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// promote offers an entry for sig under the deterministic merge,
// reporting whether it was accepted (inserted or replaced the previous
// winner). Whichever entry wins keeps the deeper of the two search
// records. e must not be published yet.
func (s *Shared) promote(sig Signature, e *sharedEntry) bool {
	s.mu.Lock()
	old, ok := s.entries[sig]
	accept := !ok || e.better(old)
	if ok {
		deeper := max(e.searched, old.searched)
		e.searched, old.searched = deeper, deeper
	}
	if accept {
		s.entries[sig] = e
	}
	s.mu.Unlock()
	if accept {
		s.promos.Add(1)
	} else {
		s.promoDrops.Add(1)
	}
	return accept
}

// probeBytes reports whether a refinement search of the signature at
// the given node budget has nothing left to find: the entry is exact, or
// a search at least that deep already failed to beat its incumbent. It
// does not count as a lookup. The map index converts through Signature
// in place, so the compiler's byteslice-to-string elision keeps the
// probe allocation-free.
func (s *Shared) probeBytes(sig []byte, budget int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[Signature(sig)]
	return ok && (e.exact || e.searched >= budget)
}

// recordBytes raises the signature's search record to depth. A record
// for a signature without an entry is dropped: that costs one repeated
// search, and it is rare, since admission stores the shape's schedule
// before it offers the shape for refinement.
func (s *Shared) recordBytes(sig []byte, depth int64) {
	s.mu.Lock()
	if e, ok := s.entries[Signature(sig)]; ok && e.searched < depth {
		e.searched = depth
	}
	s.mu.Unlock()
}

// ---- wire form ----

// sharedWireEntry is the JSON form of one entry in a warm-cache file.
// Searched is the search record; files written before it existed simply
// lack the field.
type sharedWireEntry struct {
	Sig        string              `json:"sig"`
	NJobs      int                 `json:"njobs"`
	Energy     float64             `json:"energy"`
	Exact      bool                `json:"exact,omitempty"`
	Searched   int64               `json:"searched,omitempty"`
	Assignment []int               `json:"assignment,omitempty"`
	Segments   []sharedWireSegment `json:"segments"`
}

type sharedWireSegment struct {
	Start      float64               `json:"start"`
	End        float64               `json:"end"`
	Placements []sharedWirePlacement `json:"placements,omitempty"`
}

type sharedWirePlacement struct {
	Job   int `json:"job"`
	Point int `json:"point"`
}

// warmVersion is the only warm-file version there is.
const warmVersion = 1

// Save writes the tier as canonical JSON, entries sorted by signature,
// so identical tier contents always serialise to identical bytes
// regardless of the order of promotions and search records. The document
// is {"version":1,"entries":[…]} and a newline, written one entry at a
// time.
func (s *Shared) Save(w io.Writer) error {
	type item struct {
		sig      string
		e        *sharedEntry
		searched int64
	}
	s.mu.RLock()
	items := make([]item, 0, len(s.entries))
	for sig, e := range s.entries {
		items = append(items, item{string(sig), e, e.searched})
	}
	s.mu.RUnlock()
	sort.Slice(items, func(a, b int) bool { return items[a].sig < items[b].sig })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"version":%d,"entries":[`, warmVersion)
	for i, it := range items {
		we := it.e.wire(it.sig, it.searched)
		b, err := json.Marshal(&we)
		if err != nil {
			return fmt.Errorf("schedcache: warm file entry %d: %w", i, err)
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	return bw.Flush() // reports the first write error, if any
}

// wire converts the entry to its warm-file form. The search record is
// passed in because only the tier lock may read it off the entry.
func (e *sharedEntry) wire(sig string, searched int64) sharedWireEntry {
	we := sharedWireEntry{
		Sig:        sig,
		NJobs:      e.njobs,
		Energy:     e.energy,
		Exact:      e.exact,
		Searched:   searched,
		Assignment: e.assignment,
	}
	for _, seg := range e.segments {
		ws := sharedWireSegment{Start: seg.Start, End: seg.End}
		for _, p := range seg.Placements {
			ws.Placements = append(ws.Placements, sharedWirePlacement{Job: p.JobID, Point: p.Point})
		}
		we.Segments = append(we.Segments, ws)
	}
	return we
}

// entry checks one decoded warm-file entry and converts it to tier form.
func (we *sharedWireEntry) entry() (*sharedEntry, error) {
	if we.Sig == "" || we.NJobs <= 0 || len(we.Segments) == 0 {
		return nil, errors.New("malformed")
	}
	if we.Assignment != nil && len(we.Assignment) != we.NJobs {
		return nil, fmt.Errorf("%d assignments for %d jobs", len(we.Assignment), we.NJobs)
	}
	if we.Searched < 0 {
		return nil, fmt.Errorf("search record %d is negative", we.Searched)
	}
	e := &sharedEntry{
		njobs:      we.NJobs,
		energy:     we.Energy,
		exact:      we.Exact,
		searched:   we.Searched,
		assignment: we.Assignment,
		segments:   make([]schedule.Segment, 0, len(we.Segments)),
	}
	for _, ws := range we.Segments {
		seg := schedule.Segment{Start: ws.Start, End: ws.End}
		for _, p := range ws.Placements {
			if p.Job < 0 || p.Job >= we.NJobs {
				return nil, fmt.Errorf("canonical job %d outside [0,%d)", p.Job, we.NJobs)
			}
			seg.Placements = append(seg.Placements, schedule.Placement{JobID: p.Job, Point: p.Point})
		}
		e.segments = append(e.segments, seg)
	}
	return e, nil
}

// Load merges a warm-cache file into the tier through the same
// deterministic merge as live promotions, so loading is idempotent and
// commutes with concurrent traffic. The document is walked token by
// token and merged one entry at a time; a malformed entry fails the load
// with the entries before it already merged. Entries that precede the
// version key wait for it, so an unsupported file merges nothing.
func (s *Shared) Load(r io.Reader) error {
	if err := s.load(json.NewDecoder(r)); err != nil {
		return fmt.Errorf("schedcache: warm file: %w", err)
	}
	return nil
}

func (s *Shared) load(dec *json.Decoder) error {
	type pending struct {
		sig Signature
		e   *sharedEntry
	}
	var held []pending // entries read before the version key
	versioned := false
	merge := func(sig Signature, e *sharedEntry) {
		if s.promote(sig, e) {
			s.loaded.Add(1)
		}
	}

	if err := expectDelim(dec, '{'); err != nil {
		return err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		switch key {
		case "version":
			var v int
			if err := dec.Decode(&v); err != nil {
				return err
			}
			if v != warmVersion {
				return fmt.Errorf("version %d unsupported", v)
			}
			versioned = true
			for _, p := range held {
				merge(p.sig, p.e)
			}
			held = nil
		case "entries":
			if err := expectDelim(dec, '['); err != nil {
				return err
			}
			for i := 0; dec.More(); i++ {
				var we sharedWireEntry
				if err := dec.Decode(&we); err != nil {
					return fmt.Errorf("entry %d: %w", i, err)
				}
				e, err := we.entry()
				if err != nil {
					return fmt.Errorf("entry %d: %w", i, err)
				}
				if versioned {
					merge(Signature(we.Sig), e)
				} else {
					held = append(held, pending{Signature(we.Sig), e})
				}
			}
			if err := expectDelim(dec, ']'); err != nil {
				return err
			}
		default:
			var skipped json.RawMessage
			if err := dec.Decode(&skipped); err != nil {
				return err
			}
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return err
	}
	if !versioned {
		return errors.New("no version")
	}
	return nil
}

// expectDelim consumes the next token, which must be the delimiter d. A
// stream that ends first is io.ErrUnexpectedEOF.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	if tok != d {
		return fmt.Errorf("expected %q, found %v", d, tok)
	}
	return nil
}
