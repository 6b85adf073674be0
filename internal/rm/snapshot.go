package rm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/job"
	"adaptrm/internal/schedule"
)

// ErrRestore flags an invalid snapshot handed to Restore.
var ErrRestore = errors.New("rm: invalid snapshot")

// Snapshot is the complete reconstructable state of a manager, in wire
// form: plain values with JSON tags, no pointers into live structures.
// It is the unit the durability layer (internal/durable) persists — a
// manager restored from a snapshot and then driven by the tail of the
// event log reaches a state byte-identical to the original.
//
// The schedule cache (which lives in the fleet layer, not here) is
// deliberately outside the snapshot: it is a performance artifact, not
// admission state, and recovers cold.
type Snapshot struct {
	// Now is the device's virtual clock.
	Now float64 `json:"now"`
	// NextID is the next job id to assign.
	NextID int `json:"next_id"`
	// EventSeq is the last emitted event sequence number; replaying the
	// tail of the event log past this point continues the numbering with
	// no gap.
	EventSeq uint64 `json:"event_seq"`

	// Admission counters and accounting (Stats, flattened to fixed-width
	// wire types).
	Submitted        int     `json:"submitted"`
	Accepted         int     `json:"accepted"`
	Rejected         int     `json:"rejected"`
	Completed        int     `json:"completed"`
	DeadlineMisses   int     `json:"deadline_misses"`
	Cancelled        int     `json:"cancelled"`
	Energy           float64 `json:"energy"`
	Activations      int     `json:"activations"`
	SchedulingTimeNs int64   `json:"scheduling_time_ns"`
	// Swapped counts accepted refinement swaps. omitempty keeps
	// snapshots of swap-free managers byte-identical to pre-refinement
	// builds (and their files loadable by them).
	Swapped int `json:"swapped,omitempty"`
	// Mode is the degradation tier's wire name when not ModeNormal.
	// omitempty keeps snapshots of never-degraded managers
	// byte-identical to pre-control builds.
	Mode string `json:"mode,omitempty"`

	// Active are the unfinished admitted jobs in admission order.
	Active []SnapshotJob `json:"active,omitempty"`
	// Started lists the active job ids that already emitted JobStarted,
	// in ascending order.
	Started []int `json:"started,omitempty"`
	// Current is the active schedule's segments. Nothing else of the
	// device's history is kept: a snapshot's size follows the active
	// jobs, not the uptime. (Snapshots of earlier builds also carry an
	// "executed" timeline; decoding ignores it.)
	Current []SnapshotSegment `json:"current,omitempty"`
}

// SnapshotJob is one active job in wire form. The operating-point table
// is referenced by application name and re-resolved from the library on
// restore, so a snapshot is valid across processes.
type SnapshotJob struct {
	ID        int     `json:"id"`
	App       string  `json:"app"`
	Arrival   float64 `json:"arrival"`
	Deadline  float64 `json:"deadline"`
	Remaining float64 `json:"remaining"`
}

// SnapshotPlacement is one schedule placement in wire form.
type SnapshotPlacement struct {
	Job   int `json:"job"`
	Point int `json:"point"`
}

// SnapshotSegment is one schedule segment in wire form.
type SnapshotSegment struct {
	Start      float64             `json:"start"`
	End        float64             `json:"end"`
	Placements []SnapshotPlacement `json:"placements,omitempty"`
}

// EventSeq returns the sequence number of the last emitted event (0
// before any), letting persistence layers align snapshots with the
// event log.
func (m *Manager) EventSeq() uint64 { return m.eventSeq }

// Snapshot captures the manager's reconstructable state. It is a pure
// read: no events, no counter changes.
func (m *Manager) Snapshot() *Snapshot {
	s := &Snapshot{
		Now:              m.now,
		NextID:           m.nextID,
		EventSeq:         m.eventSeq,
		Submitted:        m.stats.Submitted,
		Accepted:         m.stats.Accepted,
		Rejected:         m.stats.Rejected,
		Completed:        m.stats.Completed,
		DeadlineMisses:   m.stats.DeadlineMisses,
		Cancelled:        m.stats.Cancelled,
		Energy:           m.stats.Energy,
		Activations:      m.stats.Activations,
		SchedulingTimeNs: int64(m.stats.SchedulingTime),
		Swapped:          m.stats.Swapped,
	}
	if m.mode != api.ModeNormal {
		s.Mode = m.mode.String()
	}
	for _, j := range m.active {
		s.Active = append(s.Active, SnapshotJob{
			ID:        j.ID,
			App:       j.Table.Name(),
			Arrival:   j.Arrival,
			Deadline:  j.Deadline,
			Remaining: j.Remaining,
		})
		if m.started[j.ID] {
			s.Started = append(s.Started, j.ID)
		}
	}
	sort.Ints(s.Started)
	s.Current = segmentsToWire(m.current.Segments)
	return s
}

// Restore loads a snapshot into a freshly constructed manager: same
// platform/library/scheduler/options as the snapshotted one, no traffic
// yet. It resolves application tables by name, rebuilds the active set
// and schedule, and positions the clock, job ids and event sequence
// exactly where the snapshot left them. No events are emitted; the next
// emitted event continues the sequence.
//
// The schedule must be one the restored manager can run: every segment
// has End ≥ Start, and every placement names an active job and one of
// its table's operating points. The one exception is history: a job
// that completed keeps its already-executed placements in the schedule
// until the next re-plan, so a placement of an issued id (below NextID)
// that is no longer active is accepted in a segment that began by the
// clock.
func (m *Manager) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("%w: nil", ErrRestore)
	}
	if m.now != 0 || m.nextID != 1 || len(m.active) != 0 || m.stats != (Stats{}) || m.mode != api.ModeNormal {
		return fmt.Errorf("%w: manager not fresh", ErrRestore)
	}
	mode := api.ModeNormal
	if s.Mode != "" {
		var err error
		if mode, err = api.ParseMode(s.Mode); err != nil {
			return fmt.Errorf("%w: %w", ErrRestore, err)
		}
	}
	if s.NextID < 1 {
		return fmt.Errorf("%w: next id %d", ErrRestore, s.NextID)
	}
	active := make(job.Set, 0, len(s.Active))
	for _, sj := range s.Active {
		tbl := m.lib.Get(sj.App)
		if tbl == nil {
			return fmt.Errorf("%w: job %d references unknown app %q", ErrRestore, sj.ID, sj.App)
		}
		if sj.ID <= 0 || sj.ID >= s.NextID {
			return fmt.Errorf("%w: job id %d outside [1,%d)", ErrRestore, sj.ID, s.NextID)
		}
		active = append(active, &job.Job{
			ID:        sj.ID,
			Table:     tbl,
			Arrival:   sj.Arrival,
			Deadline:  sj.Deadline,
			Remaining: sj.Remaining,
		})
	}
	for _, id := range s.Started {
		if active.ByID(id) == nil {
			return fmt.Errorf("%w: started job %d not active", ErrRestore, id)
		}
	}
	for _, seg := range s.Current {
		if seg.End < seg.Start {
			return fmt.Errorf("%w: segment [%v, %v] ends before it starts", ErrRestore, seg.Start, seg.End)
		}
		for _, p := range seg.Placements {
			j := active.ByID(p.Job)
			switch {
			case j != nil:
				if p.Point < 0 || p.Point >= len(j.Table.Points) {
					return fmt.Errorf("%w: job %d placed at point %d of %d", ErrRestore, p.Job, p.Point, len(j.Table.Points))
				}
			case p.Job <= 0 || p.Job >= s.NextID || seg.Start > s.Now+schedule.Eps:
				return fmt.Errorf("%w: segment [%v, %v] places job %d, which is not active", ErrRestore, seg.Start, seg.End, p.Job)
			}
		}
	}
	m.now = s.Now
	m.nextID = s.NextID
	m.eventSeq = s.EventSeq
	m.mode = mode
	m.active = active
	m.current = &schedule.Schedule{Segments: segmentsFromWire(s.Current)}
	m.stats = Stats{
		Submitted:      s.Submitted,
		Accepted:       s.Accepted,
		Rejected:       s.Rejected,
		Completed:      s.Completed,
		DeadlineMisses: s.DeadlineMisses,
		Cancelled:      s.Cancelled,
		Energy:         s.Energy,
		Activations:    s.Activations,
		SchedulingTime: time.Duration(s.SchedulingTimeNs),
		Swapped:        s.Swapped,
	}
	if len(s.Started) > 0 && m.started == nil {
		m.started = make(map[int]bool, len(s.Started))
	}
	for _, id := range s.Started {
		m.started[id] = true
	}
	return nil
}

func segmentsToWire(segs []schedule.Segment) []SnapshotSegment {
	if len(segs) == 0 {
		return nil
	}
	out := make([]SnapshotSegment, len(segs))
	for i, seg := range segs {
		w := SnapshotSegment{Start: seg.Start, End: seg.End}
		for _, p := range seg.Placements {
			w.Placements = append(w.Placements, SnapshotPlacement{Job: p.JobID, Point: p.Point})
		}
		out[i] = w
	}
	return out
}

func segmentsFromWire(segs []SnapshotSegment) []schedule.Segment {
	if len(segs) == 0 {
		return nil
	}
	out := make([]schedule.Segment, len(segs))
	for i, w := range segs {
		seg := schedule.Segment{Start: w.Start, End: w.End}
		for _, p := range w.Placements {
			seg.Placements = append(seg.Placements, schedule.Placement{JobID: p.Job, Point: p.Point})
		}
		out[i] = seg
	}
	return out
}
