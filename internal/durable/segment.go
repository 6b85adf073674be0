package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"adaptrm/internal/rm"
)

// On-disk layout:
//
//	<dir>/meta.json                   fleet identity, checked on reopen
//	<dir>/dev-0007/wal-…000042.log    segment: frames for seqs >= 42
//	<dir>/dev-0007/snap-…000979.json  snapshot through seq 979
//
// Segment files are named by the sequence number of their first record,
// zero-padded so lexicographic order is sequence order; within a
// segment, frames are contiguous by construction (the writer rotates on
// any discontinuity, which only a snapshot-rescue after watch lag can
// introduce). Snapshot files are canonical JSON of rm.Snapshot, written
// via temp-file + fsync + rename so a crash mid-write never replaces a
// good snapshot with a torn one.

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".json"
	metaName       = "meta.json"
	seqDigits      = 20 // fits any uint64
)

func deviceDirName(dev int) string { return fmt.Sprintf("dev-%04d", dev) }

func segmentFileName(firstSeq uint64) string {
	return fmt.Sprintf("%s%0*d%s", segmentPrefix, seqDigits, firstSeq, segmentSuffix)
}

func snapshotFileName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", snapshotPrefix, seqDigits, seq, snapshotSuffix)
}

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != seqDigits {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// fileInfo is one segment or snapshot file keyed by its sequence
// number.
type fileInfo struct {
	seq  uint64
	path string
}

// listSeqFiles returns the prefix/suffix-matching files of dir sorted
// ascending by sequence. A missing dir is an empty listing.
func listSeqFiles(dir, prefix, suffix string) ([]fileInfo, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []fileInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			out = append(out, fileInfo{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// writeSnapshotFile atomically persists one snapshot: canonical JSON to
// a temp file, fsync, rename into place, fsync the directory so the
// rename itself is durable.
func writeSnapshotFile(dir string, snap *rm.Snapshot) (string, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapshotFileName(snap.EventSeq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if cerr := f.Close(); cerr != nil {
		os.Remove(tmp)
		return "", cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, syncDir(dir)
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (*rm.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap rm.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.NextID < 1 {
		return nil, fmt.Errorf("durable: snapshot %s: invalid next id %d", path, snap.NextID)
	}
	return &snap, nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable. Best effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}

// Meta pins the fleet identity a data dir belongs to. Replaying a log
// against a different platform, scheduler or device count would not
// diverge quietly — the replay verification catches it — but failing
// fast with a configuration message beats a cryptic divergence error.
type Meta struct {
	// Version is the on-disk format version.
	Version int `json:"version"`
	// Devices is the fleet size.
	Devices int `json:"devices"`
	// Scheduler names the per-device scheduler.
	Scheduler string `json:"scheduler"`
	// Cache records whether the schedule cache was enabled.
	Cache bool `json:"cache"`
}

// metaVersion is the current on-disk format version. It did not move
// when snapshots dropped their "executed" timeline (decoding ignores
// it) and meta its "reschedule_on_finish" (loadMeta refuses true).
const metaVersion = 1

func loadMeta(dir string) (Meta, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if os.IsNotExist(err) {
		return Meta{}, false, nil
	}
	if err != nil {
		return Meta{}, false, err
	}
	var m struct {
		Meta
		Replans bool `json:"reschedule_on_finish"` // see ErrCompletionReplans
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, false, fmt.Errorf("durable: %s/%s: %w", dir, metaName, err)
	}
	if m.Replans {
		return Meta{}, false, fmt.Errorf("%w: %s/%s", ErrCompletionReplans, dir, metaName)
	}
	return m.Meta, true, nil
}

func storeMeta(dir string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, metaName)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return syncDir(dir)
}
