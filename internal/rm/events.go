package rm

// EventType discriminates the lifecycle events a manager emits. The
// taxonomy is the protocol contract of the streaming/watch subsystem:
// every transport (in-process fleet, SSE over HTTP, a future gRPC
// binding) carries exactly these kinds, so an event log is replayable
// against any of them.
type EventType string

const (
	// EventJobAdmitted: a request was accepted; the job is now active.
	EventJobAdmitted EventType = "job_admitted"
	// EventJobRejected: a request was cleanly rejected (no feasible
	// schedule). Erroneous requests (unknown app, bad deadline) emit no
	// event, mirroring their exclusion from the admission counters.
	EventJobRejected EventType = "job_rejected"
	// EventJobStarted: the job executed its first schedule fraction.
	EventJobStarted EventType = "job_started"
	// EventJobCompleted: the job finished; Missed flags a deadline
	// violation.
	EventJobCompleted EventType = "job_completed"
	// EventJobCancelled: the job was aborted while active.
	EventJobCancelled EventType = "job_cancelled"
	// EventScheduleChanged: the active schedule was replaced (admission,
	// cancellation re-plan, or a reschedule-on-finish).
	EventScheduleChanged EventType = "schedule_changed"
	// EventScheduleSwapped: anytime refinement replaced the active
	// schedule with a strictly cheaper one (SwapSchedule). Unlike
	// EventScheduleChanged — whose schedule is re-derived during replay
	// by re-running the deterministic admission solve — a swap's
	// schedule comes from an unbounded background search, so the event
	// carries the full new schedule in Payload and replay re-applies it
	// verbatim.
	EventScheduleSwapped EventType = "schedule_swapped"
	// EventModeChanged: the degradation controller switched the
	// device's operating mode (SetMode). Payload carries the new mode's
	// wire name (api.Mode.String); like EventScheduleSwapped the
	// decision came from outside the deterministic operation stream, so
	// replay re-applies the logged payload verbatim (ReplayMode) instead
	// of re-deriving it.
	EventModeChanged EventType = "mode_changed"
	// EventClockAdvanced: an explicit AdvanceTo moved the device clock;
	// At carries the new time. Interior advances (the one a Submit or
	// SubmitBatch performs before deciding) emit no clock event — the
	// admission/rejection event already records the arrival time — so
	// the event log captures exactly the operation sequence applied to
	// the manager: together with the admission events it is sufficient
	// to re-drive a fresh manager into a byte-identical state, which is
	// what crash recovery (internal/durable) does.
	EventClockAdvanced EventType = "clock_advanced"
)

// Event is one manager lifecycle event. Seq is assigned by the manager:
// strictly monotone starting at 1 with no gaps, so a consumer can detect
// loss and resume a stream from any sequence number.
type Event struct {
	// Seq is the per-manager (per-device) sequence number.
	Seq uint64
	// Type is the event kind.
	Type EventType
	// At is the virtual time of the event.
	At float64
	// JobID is the subject job (0 for rejections, which never assigned
	// one, and for schedule changes).
	JobID int
	// App names the requested application (admissions and rejections).
	App string
	// Deadline is the request's absolute deadline (admissions and
	// rejections).
	Deadline float64
	// Missed flags a deadline violation on a completion.
	Missed bool
	// Payload carries event-type-specific data: for
	// EventScheduleSwapped, the swapped-in schedule's segments as
	// canonical JSON (the SnapshotSegment wire form). It is a string —
	// not a structured field — so Event stays comparable, which the
	// recovery verifier and the watch ring rely on.
	Payload string
}

// SetEventSink installs fn as the manager's event observer; nil removes
// it. The sink is invoked synchronously from within manager calls — it
// must not call back into the manager and should return quickly (fan-out
// layers buffer, they do not block here). Install the sink before
// traffic: events are only generated while one is installed, so sequence
// numbers count from the installation point and JobStarted tracking
// begins there too.
func (m *Manager) SetEventSink(fn func(Event)) {
	m.sink = fn
	if fn != nil && m.started == nil {
		m.started = make(map[int]bool)
	}
}

// emit assigns the next sequence number and hands the event to the sink.
// Without a sink it is a no-op, keeping the hot path untouched.
func (m *Manager) emit(ev Event) {
	if m.sink == nil {
		return
	}
	m.eventSeq++
	ev.Seq = m.eventSeq
	m.sink(ev)
}

// emitStarted emits JobStarted the first time a job accrues execution.
func (m *Manager) emitStarted(jobID int, at float64) {
	if m.sink == nil || m.started[jobID] {
		return
	}
	m.started[jobID] = true
	m.emit(Event{Type: EventJobStarted, At: at, JobID: jobID})
}

// forget drops a retired job from the started set.
func (m *Manager) forget(jobID int) {
	if m.started != nil {
		delete(m.started, jobID)
	}
}
