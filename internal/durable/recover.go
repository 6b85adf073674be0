package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"adaptrm/internal/api"
	"adaptrm/internal/rm"
)

// ErrMetaMismatch flags a data dir recorded under a different fleet
// configuration than the one opening it.
var ErrMetaMismatch = errors.New("durable: data dir belongs to a different fleet configuration")

// ErrCompletionReplans flags a data dir written with re-planning on
// every job completion: its log holds schedule changes inside clock
// advances, which the manager no longer makes, so it cannot replay.
var ErrCompletionReplans = fmt.Errorf("%w: written with reschedule_on_finish, which this build no longer runs", ErrMetaMismatch)

// framePos locates one decoded event's frame on disk, so the tail can
// be truncated to a logical cut after replay drops a partial unit.
type framePos struct {
	path string
	end  int64 // byte offset one past the frame within its segment
}

// DeviceState is one device's recovered persisted state, ready to hand
// to fleet.Recover as a fleet.DeviceRecovery.
type DeviceState struct {
	// Snapshot seeds replay (nil for log-only recovery).
	Snapshot *rm.Snapshot
	// Events is the contiguous log tail beyond the snapshot.
	Events []api.Event

	frames   []framePos
	dir      string
	segments int
}

// State is an opened data dir: per-device recovered state plus the
// figures the recovery report and /metrics surface.
type State struct {
	// Dir is the data directory.
	Dir string
	// Meta is the stored (or just-created) fleet identity.
	Meta Meta
	// Recovered reports whether the dir held any prior state.
	Recovered bool
	// Devices holds the per-device recovered state, keyed by device id
	// (absent: device had no persisted state).
	Devices map[int]*DeviceState
	// Events counts the recovered log-tail events across devices.
	Events int
	// Snapshots counts the devices recovered from a snapshot.
	Snapshots int
	// TruncatedBytes counts torn-tail bytes physically removed from
	// segment files while opening.
	TruncatedBytes int64
}

// Open opens (creating if necessary) a data dir for the fleet described
// by meta and recovers whatever it holds: per device, the newest
// snapshot that anchors a contiguous event tail, the tail itself, and a
// physical truncation of any torn frames. meta.Version is set by Open.
func Open(dir string, meta Meta) (*State, error) {
	meta.Version = metaVersion
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stored, found, err := loadMeta(dir)
	if err != nil {
		return nil, err
	}
	if !found {
		if err := storeMeta(dir, meta); err != nil {
			return nil, err
		}
	} else if stored != meta {
		return nil, fmt.Errorf("%w: stored %+v, running %+v", ErrMetaMismatch, stored, meta)
	}
	st := &State{Dir: dir, Meta: meta, Devices: make(map[int]*DeviceState)}
	for dev := 0; dev < meta.Devices; dev++ {
		ds, err := st.recoverDevice(filepath.Join(dir, deviceDirName(dev)))
		if err != nil {
			return nil, fmt.Errorf("durable: device %d: %w", dev, err)
		}
		if ds == nil {
			continue
		}
		st.Devices[dev] = ds
		st.Events += len(ds.Events)
		if ds.Snapshot != nil {
			st.Snapshots++
		}
		st.Recovered = true
	}
	return st, nil
}

// recoverDevice reads one device dir: decode every segment to its
// longest valid prefix (physically truncating torn bytes — and deleting
// any segments stranded behind a mid-log tear, which only corruption
// can produce), then anchor the tail on the newest loadable snapshot
// that keeps it contiguous, falling back through older snapshots to
// log-only replay. Returns nil when the dir holds nothing.
func (st *State) recoverDevice(dir string) (*DeviceState, error) {
	segs, err := listSeqFiles(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return nil, err
	}
	snaps, err := listSeqFiles(dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 && len(snaps) == 0 {
		return nil, nil
	}
	ds := &DeviceState{dir: dir, segments: len(segs)}
	torn := -1
	for i, seg := range segs {
		if torn >= 0 {
			// A segment behind a tear is unreachable by any contiguous
			// replay; removing it keeps the dir describing exactly the
			// recoverable prefix.
			if err := os.Remove(seg.path); err != nil {
				return nil, err
			}
			ds.segments--
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		before := len(ds.Events)
		var valid int
		ds.Events, valid = decodeFrames(data, ds.Events)
		// Record each event's end offset by re-walking the valid prefix,
		// so Truncate can later cut the file at any frame boundary.
		off := int64(0)
		for j := before; j < len(ds.Events); j++ {
			n := int64(frameLen(data[off:]))
			off += n
			ds.frames = append(ds.frames, framePos{path: seg.path, end: off})
		}
		if valid < len(data) {
			if err := os.Truncate(seg.path, int64(valid)); err != nil {
				return nil, err
			}
			st.TruncatedBytes += int64(len(data) - valid)
			if i < len(segs)-1 {
				torn = i
			}
		}
		if before == len(ds.Events) && valid == 0 {
			// Entirely torn segment: nothing decodable survives in it.
			if err := os.Remove(seg.path); err != nil {
				return nil, err
			}
			ds.segments--
			if i < len(segs)-1 {
				torn = i
			}
		}
	}
	if torn >= 0 {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	// Anchor on the newest snapshot that keeps the tail contiguous.
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := readSnapshotFile(snaps[i].path)
		if err != nil {
			continue // torn or corrupt snapshot: fall back to an older one
		}
		if tail, frames, ok := contiguousTail(ds.Events, ds.frames, snap.EventSeq); ok {
			ds.Snapshot = snap
			ds.Events, ds.frames = tail, frames
			return ds, nil
		}
	}
	if tail, frames, ok := contiguousTail(ds.Events, ds.frames, 0); ok {
		ds.Events, ds.frames = tail, frames
		return ds, nil
	}
	return nil, fmt.Errorf("no snapshot anchors the event log (%d events, %d snapshots)", len(ds.Events), len(snaps))
}

// contiguousTail extracts the events with Seq > base and reports
// whether they form the gap-free run base+1, base+2, … (an empty tail
// qualifies). Events at or below base are covered by the snapshot and
// skipped; a gap above base means lost history the snapshot does not
// cover.
func contiguousTail(evs []api.Event, frames []framePos, base uint64) ([]api.Event, []framePos, bool) {
	i := 0
	for i < len(evs) && evs[i].Seq <= base {
		i++
	}
	for j := i; j < len(evs); j++ {
		if evs[j].Seq != base+uint64(j-i)+1 {
			return nil, nil, false
		}
	}
	return evs[i:], frames[i:], true
}

// frameLen returns the total byte length of the already-validated
// frame at the start of buf.
func frameLen(buf []byte) int {
	return frameHeader + int(uint32(buf[0])|uint32(buf[1])<<8|uint32(buf[2])<<16|uint32(buf[3])<<24)
}

// AppliedSeq returns the last sequence number the recovered state
// reflects for one device: the tail's last event, or the snapshot's.
func (ds *DeviceState) AppliedSeq() uint64 {
	if n := len(ds.Events); n > 0 {
		return ds.Events[n-1].Seq
	}
	if ds.Snapshot != nil {
		return ds.Snapshot.EventSeq
	}
	return 0
}

// Truncate physically cuts a device's persisted log after appliedSeq,
// discarding the trailing events replay dropped as an incomplete unit,
// so future appends continue from appliedSeq+1 without conflicts. A
// device with nothing persisted, or an appliedSeq at or past the tail,
// is a no-op.
func (st *State) Truncate(dev int, appliedSeq uint64) error {
	ds := st.Devices[dev]
	if ds == nil {
		return nil
	}
	cut := len(ds.Events)
	for cut > 0 && ds.Events[cut-1].Seq > appliedSeq {
		cut--
	}
	if cut == len(ds.Events) {
		return nil
	}
	// Per segment file holding dropped frames: truncate at the last
	// retained frame's end, or remove the file when nothing remains.
	type cutPoint struct {
		path string
		keep int64
	}
	var cuts []cutPoint
	for i := cut; i < len(ds.Events); i++ {
		p := ds.frames[i]
		if len(cuts) > 0 && cuts[len(cuts)-1].path == p.path {
			continue
		}
		keep := int64(0)
		if i > 0 && ds.frames[i-1].path == p.path {
			keep = ds.frames[i-1].end
		}
		cuts = append(cuts, cutPoint{path: p.path, keep: keep})
	}
	for _, c := range cuts {
		var err error
		if c.keep == 0 {
			err = os.Remove(c.path)
			ds.segments--
		} else {
			err = os.Truncate(c.path, c.keep)
		}
		if err != nil {
			return err
		}
	}
	st.Events -= len(ds.Events) - cut
	ds.Events = ds.Events[:cut]
	ds.frames = ds.frames[:cut]
	return syncDir(ds.dir)
}
