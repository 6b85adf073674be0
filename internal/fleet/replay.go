package fleet

// Crash recovery: rebuild a fleet from persisted per-device state — an
// optional snapshot (rm.Snapshot) plus the tail of the device's event
// log — by re-driving the deterministic manager transitions that
// produced the log in the first place.
//
// The event stream is an operation log in disguise. Every manager call
// emits a fixed grammar of events, and the anchors let replay recover
// the call sequence exactly:
//
//	Submit (accepted)   derived* admitted schedule_changed
//	Submit (rejected)   derived* rejected
//	SubmitBatch (joint) derived* admitted×k schedule_changed   (k ≥ 2)
//	Cancel              cancelled schedule_changed
//	AdvanceTo           derived* clock_advanced
//	SwapSchedule        schedule_swapped
//	SetMode             mode_changed
//
// A schedule_swapped anchor is special: the swapped-in schedule came
// from an unbounded background search, so instead of re-running it,
// replay re-applies the schedule carried in the event's payload
// verbatim (rm.ReplaySwap) — deterministic by construction. A
// mode_changed anchor works the same way: the degradation controller's
// decision depended on live queue depths, so replay restores the mode
// carried in the payload verbatim (rm.ReplayMode) instead of
// re-deciding it.
//
// where derived* is any run of started / completed events produced
// while the clock moves. schedule_changed is only ever a terminator: a
// clock advance never re-plans, so a schedule_changed outside a unit's
// closing position is a parse error. Sequential submits at the same
// instant interleave their schedule_changed terminators, so a run of
// consecutive admissions closed by a single schedule_changed is
// unambiguously a joint batch.
// A batch whose joint solve failed falls back to the sequential path
// and therefore logs — and replays — as individual submits; the only
// trace of the failed joint attempt is one scheduler activation, which
// replay does not repeat (Stats.Activations may undercount by the
// failed joint solves in the replayed tail; every deterministic
// admission, energy and timeline quantity is reconstructed exactly).
//
// A trailing partial unit — the process died between a unit's first
// event reaching the log and its anchor — is dropped, mirroring the
// frame-level torn-tail truncation; the caller learns the cut so it can
// truncate the physical log to match. During replay every re-emitted
// event is verified against the logged one, so a diverging scheduler,
// a corrupted log, or a mismatched configuration fails recovery loudly
// instead of rebuilding a subtly different fleet.

import (
	"errors"
	"fmt"

	"adaptrm/internal/api"
	"adaptrm/internal/rm"
)

// ErrRecovery flags persisted state Recover could not apply: a sequence
// gap, a malformed unit, or replayed transitions diverging from the
// log.
var ErrRecovery = errors.New("fleet: recovery failed")

// DeviceRecovery is one device's persisted state handed to Recover.
type DeviceRecovery struct {
	// Snapshot, when non-nil, seeds the device before replay; events
	// with Seq <= Snapshot.EventSeq are skipped.
	Snapshot *rm.Snapshot
	// Events is the device's event-log tail, contiguous and in sequence
	// order, starting at or before Snapshot.EventSeq+1 (at 1 for
	// log-only replay).
	Events []api.Event
}

// DeviceRecoveryResult reports what Recover applied for one device.
type DeviceRecoveryResult struct {
	// SnapshotSeq is the event sequence the snapshot covered (0 without
	// a snapshot).
	SnapshotSeq uint64
	// AppliedSeq is the last event sequence number reflected in the
	// recovered device (snapshot or replay; 0 for an empty recovery).
	AppliedSeq uint64
	// Replayed counts the events re-applied through manager transitions.
	Replayed int
	// Dropped counts trailing events discarded as an incomplete unit;
	// the persisted log should be truncated after Events[Replayed-1] (in
	// snapshot-skip order) so future appends continue from AppliedSeq.
	Dropped int
}

// Recover builds a fleet like New, but first restores each device named
// in rec: load the snapshot if present, then replay the event tail
// through the deterministic manager transitions, verifying every
// re-emitted event against the log. Devices absent from rec start
// fresh. The returned results are keyed like rec; on error the partial
// fleet is discarded (no workers have started).
//
// The replayed tail also re-populates the device's watch-resume history
// window, so a subscriber resuming after a crash sees the same
// retention semantics as after a restart without traffic loss.
func Recover(devs []DeviceConfig, opt Options, rec map[int]DeviceRecovery) (*Fleet, map[int]DeviceRecoveryResult, error) {
	for dev := range rec {
		if dev < 0 || dev >= len(devs) {
			return nil, nil, fmt.Errorf("%w: recovery for device %d of %d", ErrRecovery, dev, len(devs))
		}
	}
	f, err := build(devs, opt)
	if err != nil {
		return nil, nil, err
	}
	results := make(map[int]DeviceRecoveryResult, len(rec))
	for dev, dr := range rec {
		res, err := f.replayDevice(f.devices[dev], dr)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: device %d: %w", ErrRecovery, dev, err)
		}
		results[dev] = res
	}
	f.start()
	return f, results, nil
}

// replayDevice applies one device's persisted state. It runs before the
// shard workers start, so it owns the manager outright; the temporary
// verifying sink also feeds the watch-resume history ring.
func (f *Fleet) replayDevice(d *device, dr DeviceRecovery) (DeviceRecoveryResult, error) {
	var res DeviceRecoveryResult
	if dr.Snapshot != nil {
		if err := d.mgr.Restore(dr.Snapshot); err != nil {
			return res, err
		}
		res.SnapshotSeq = dr.Snapshot.EventSeq
		res.AppliedSeq = dr.Snapshot.EventSeq
	}
	evs := dr.Events
	for len(evs) > 0 && evs[0].Seq <= res.AppliedSeq {
		evs = evs[1:] // already covered by the snapshot
	}
	for i, ev := range evs {
		if want := res.AppliedSeq + uint64(i) + 1; ev.Seq != want {
			return res, fmt.Errorf("event log gap: seq %d, want %d", ev.Seq, want)
		}
	}
	ops, cut, err := parseReplayOps(evs)
	if err != nil {
		return res, err
	}
	cursor := 0
	var verr error
	d.mgr.SetEventSink(func(ev rm.Event) {
		if verr != nil {
			return
		}
		ae := toAPIEvent(d.id, ev)
		if cursor >= cut || ae != evs[cursor] {
			logged := "log exhausted"
			if cursor < cut {
				logged = fmt.Sprintf("logged %+v", evs[cursor])
			}
			verr = fmt.Errorf("replay diverged at seq %d: emitted %+v, %s", ev.Seq, ae, logged)
			return
		}
		cursor++
		d.history.push(ae)
	})
	for _, o := range ops {
		var err error
		switch o.kind {
		case opSubmit:
			_, _, _, err = d.mgr.Submit(o.at, o.app, o.deadline)
		case opBatch:
			_, _, err = d.mgr.SubmitBatch(o.at, o.items)
		case opCancel:
			err = d.mgr.Cancel(o.jobID)
		case opAdvance:
			_, err = d.mgr.AdvanceTo(o.at)
		case opSwap:
			err = d.mgr.ReplaySwap(o.at, o.payload)
		case opMode:
			err = d.mgr.ReplayMode(o.at, o.payload)
		}
		if err != nil {
			return res, fmt.Errorf("replaying seq %d: %w", res.AppliedSeq+uint64(cursor)+1, err)
		}
		if verr != nil {
			return res, verr
		}
	}
	if cursor != cut {
		return res, fmt.Errorf("replay emitted %d events, log holds %d", cursor, cut)
	}
	res.Replayed = cut
	res.Dropped = len(evs) - cut
	if cut > 0 {
		res.AppliedSeq = evs[cut-1].Seq
	}
	return res, nil
}

// replayOp is one reconstructed manager call.
type replayOp struct {
	kind         opKind
	at, deadline float64
	app          string
	jobID        int
	items        []rm.Request
	payload      string // schedule_swapped: the logged schedule JSON
}

// derivedEvent reports the event kinds that never start a unit on their
// own: they are produced inside the op whose anchor follows them.
func derivedEvent(t api.EventType) bool {
	return t == api.EventJobStarted || t == api.EventJobCompleted
}

// parseReplayOps reconstructs the manager-call sequence from an event
// log per the unit grammar above. cut is the number of leading events
// the returned ops fully account for; trailing events beyond it form an
// incomplete unit and must be discarded by the caller. A structurally
// impossible log (a Lagged marker, a cancellation without its
// schedule_changed) is an error — those cannot result from a torn
// tail, only from corruption or a non-contiguous log.
func parseReplayOps(evs []api.Event) (ops []replayOp, cut int, err error) {
	i := 0
	for i < len(evs) {
		j := i
		for j < len(evs) && derivedEvent(evs[j].Type) {
			j++
		}
		if j == len(evs) {
			break // derived events whose anchor never landed
		}
		switch a := evs[j]; a.Type {
		case api.EventJobRejected:
			ops = append(ops, replayOp{kind: opSubmit, at: a.At, app: a.App, deadline: a.Deadline})
			i = j + 1
		case api.EventClockAdvanced:
			ops = append(ops, replayOp{kind: opAdvance, at: a.At})
			i = j + 1
		case api.EventScheduleSwapped:
			if a.Payload == "" {
				return nil, 0, fmt.Errorf("schedule swap at seq %d carries no payload", a.Seq)
			}
			ops = append(ops, replayOp{kind: opSwap, at: a.At, payload: a.Payload})
			i = j + 1
		case api.EventModeChanged:
			if a.Payload == "" {
				return nil, 0, fmt.Errorf("mode change at seq %d carries no payload", a.Seq)
			}
			ops = append(ops, replayOp{kind: opMode, at: a.At, payload: a.Payload})
			i = j + 1
		case api.EventJobCancelled:
			if j+1 == len(evs) {
				return ops, cut, nil // terminator never landed
			}
			if evs[j+1].Type != api.EventScheduleChanged {
				return nil, 0, fmt.Errorf("cancellation at seq %d not followed by schedule change", a.Seq)
			}
			ops = append(ops, replayOp{kind: opCancel, jobID: a.JobID})
			i = j + 2
		case api.EventJobAdmitted:
			k := j
			for k+1 < len(evs) && evs[k+1].Type == api.EventJobAdmitted {
				k++
			}
			if k+1 == len(evs) {
				return ops, cut, nil // terminator never landed
			}
			if evs[k+1].Type != api.EventScheduleChanged {
				return nil, 0, fmt.Errorf("admission run at seq %d not closed by schedule change", a.Seq)
			}
			if k == j {
				ops = append(ops, replayOp{kind: opSubmit, at: a.At, app: a.App, deadline: a.Deadline})
			} else {
				items := make([]rm.Request, 0, k-j+1)
				for _, ev := range evs[j : k+1] {
					items = append(items, rm.Request{App: ev.App, Deadline: ev.Deadline})
				}
				ops = append(ops, replayOp{kind: opBatch, at: a.At, items: items})
			}
			i = k + 2
		default:
			return nil, 0, fmt.Errorf("event %q at seq %d cannot appear in a persisted log", a.Type, a.Seq)
		}
		cut = i
	}
	return ops, cut, nil
}

// DeviceSnapshot captures one device's reconstructable state under its
// lock — the fleet-level snapshot hook the durability layer periodically
// invokes. Safe while traffic is flowing: manager calls for the device
// serialize on the same lock.
func (f *Fleet) DeviceSnapshot(dev int) (*rm.Snapshot, error) {
	if dev < 0 || dev >= len(f.devices) {
		return nil, f.deviceErr(dev)
	}
	d := f.devices[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr.Snapshot(), nil
}

// DeviceEventSeqs snapshots every device's last emitted event sequence
// number, in device order — the reference the WAL position is measured
// against on /metrics.
func (f *Fleet) DeviceEventSeqs() []uint64 {
	out := make([]uint64, len(f.devices))
	for i, d := range f.devices {
		d.mu.Lock()
		out[i] = d.mgr.EventSeq()
		d.mu.Unlock()
	}
	return out
}
