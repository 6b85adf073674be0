// Package durable persists the fleet's event streams and periodic
// state snapshots to disk, and recovers them after a crash.
//
// The design leans entirely on the determinism the runtime managers
// already guarantee: every device is a state machine whose event log
// (package rm, fanned out by package fleet) doubles as an operation
// log. Durability is therefore a tail job — a writer subscribes to each
// device's watch stream (FromSeq resume, never blocking a shard worker)
// and appends length-prefixed, CRC32C-framed event records to
// per-device segment files, rotating by size and writing periodic
// snapshots (canonical JSON of rm.Snapshot) so recovery is
// snapshot-load plus tail-replay instead of full replay. Recovery
// truncates a torn tail at the first bad frame, hands the snapshot and
// the contiguous event tail to fleet.Recover — which re-drives the
// deterministic manager transitions and verifies every re-emitted event
// against the log — and then truncates the physical log to the logical
// cut so appends continue without sequence conflicts.
//
// # Durability and recovery
//
// Persistence is asynchronous by construction: an admission is
// acknowledged when the manager decides it, and reaches disk when the
// writer drains it from the watch stream — microseconds later under
// normal load, bounded by the subscription buffer under pressure. The
// -fsync policy then chooses how far the operating system is trusted:
// "always" fsyncs after every appended event (each event costs a disk
// round-trip; survives power loss), "interval" fsyncs on a timer
// (default 100ms of events at risk; survives process crashes
// outright), "never" leaves flushing entirely to the OS page cache.
// Snapshots are written atomically (temp file, fsync, rename) and
// retained two deep, so a snapshot torn by a crash never strands
// recovery: the previous one still anchors the log. A fleet recovered
// from snapshot+tail or from log-only replay reconstructs per-device
// state byte-identical to the pre-crash process at the same sequence
// number — with one documented exception: a batch whose joint solve
// failed leaves no event trace of the failed attempt, so replay
// undercounts Stats.Activations by exactly those solves (admission
// verdicts, energy and schedules are unaffected).
// The schedule cache is a performance artifact, not admission state;
// it restarts cold after snapshot recovery.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"strconv"

	"adaptrm/internal/api"
)

// Frame layout: [length uint32 LE][crc32c uint32 LE][payload]. The
// length covers the payload only; the CRC (Castagnoli polynomial, the
// same choice as iSCSI/ext4 for its error-detection properties and
// hardware support) covers the payload only, so a torn header, a torn
// payload and a bit-flipped payload are all detected the same way: the
// frame fails to validate and decoding stops there.
const (
	frameHeader = 8
	// maxFramePayload bounds a single record. Event payloads are tens of
	// bytes (a few KB for schedule-swap events, which carry the swapped
	// schedule); anything claiming a megabyte is garbage read from a
	// torn header, not a record.
	maxFramePayload = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed event record to dst and returns the
// extended slice. The payload is hand-rolled JSON (decodable by
// encoding/json into api.Event): with a pre-grown dst the append path
// performs zero heap allocations, pinned by BenchmarkWALAppend.
func appendFrame(dst []byte, ev api.Event) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendEventJSON(dst, ev)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// appendEventJSON encodes ev like encoding/json would (same field
// names and omitempty semantics as api.Event), without reflection or
// allocation. Floats use the shortest representation that round-trips
// exactly (strconv 'g' with precision -1), so a decoded event is
// bit-identical to the emitted one.
func appendEventJSON(dst []byte, ev api.Event) []byte {
	dst = append(dst, `{"device":`...)
	dst = strconv.AppendInt(dst, int64(ev.Device), 10)
	if ev.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, ev.Seq, 10)
	}
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, string(ev.Type))
	if ev.At != 0 {
		dst = append(dst, `,"at":`...)
		dst = appendJSONFloat(dst, ev.At)
	}
	if ev.JobID != 0 {
		dst = append(dst, `,"job_id":`...)
		dst = strconv.AppendInt(dst, int64(ev.JobID), 10)
	}
	if ev.App != "" {
		dst = append(dst, `,"app":`...)
		dst = appendJSONString(dst, ev.App)
	}
	if ev.Deadline != 0 {
		dst = append(dst, `,"deadline":`...)
		dst = appendJSONFloat(dst, ev.Deadline)
	}
	if ev.Missed {
		dst = append(dst, `,"missed":true`...)
	}
	if ev.Dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, int64(ev.Dropped), 10)
	}
	if ev.Payload != "" {
		dst = append(dst, `,"payload":`...)
		dst = appendJSONString(dst, ev.Payload)
	}
	return append(dst, '}')
}

// appendJSONFloat writes a finite float in shortest round-trip form.
// Event times are always finite; a non-finite value would mean manager
// state corruption, so it is encoded as null and rejected at decode
// (the frame fails validation) rather than silently zeroed.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, `null`...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes a JSON string literal. Application names are
// short identifiers in practice, but the encoder stays safe for any
// byte content: quotes, backslashes and control characters escape.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// decodeFrames scans buf and appends every decodable event to into,
// returning the extended slice and the byte length of the longest valid
// prefix. It never fails and never panics: a short header, a zero or
// oversized length, a truncated payload, a CRC mismatch or unparseable
// JSON all mean the same thing — the log ends here (torn tail), and
// valid is where the caller should truncate.
func decodeFrames(buf []byte, into []api.Event) ([]api.Event, int) {
	valid := 0
	for {
		rest := buf[valid:]
		if len(rest) < frameHeader {
			return into, valid
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > maxFramePayload || len(rest) < frameHeader+n {
			return into, valid
		}
		payload := rest[frameHeader : frameHeader+n]
		if binary.LittleEndian.Uint32(rest[4:]) != crc32.Checksum(payload, castagnoli) {
			return into, valid
		}
		var ev api.Event
		if err := json.Unmarshal(payload, &ev); err != nil || ev.Seq == 0 {
			return into, valid
		}
		into = append(into, ev)
		valid += frameHeader + n
	}
}
