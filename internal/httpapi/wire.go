package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"adaptrm/internal/api"
)

// The wire codec of the hot verbs: submit, advance and cancel, request
// and result. Every routed admission crosses two HTTP hops, and each hop
// encodes and decodes one request and one result, so reflection on
// these six messages used to be the largest single cost of the deployed
// topology after the sockets themselves.
//
// The codec changes no byte on the wire and no accept/reject decision:
//
//   - appendWire writes exactly what encoding/json writes (the same
//     float formatting, HTML escaping and omitempty rules); it declines
//     a message it cannot encode that way (another type, or a
//     non-finite float) and the caller uses encoding/json.
//   - parseWire accepts only a canonical subset — one object, each known
//     key at most once in its exact spelling, plain ASCII strings
//     without escapes, JSON numbers and literals, optional whitespace —
//     and then produces the value encoding/json produces from the same
//     bytes. Anything else (escapes, non-ASCII, null, case-variant or
//     unknown keys, duplicates, malformed input) is declined, and the
//     caller runs encoding/json on the same bytes, so the outcome is
//     encoding/json's by construction. Bytes after the object are never
//     looked at, exactly like json.Decoder.Decode.
//
// FuzzWireCodec holds both halves to encoding/json.

// appendWire appends the JSON encoding of v to b when v is a hot message;
// ok is false when the caller must fall back to encoding/json. It never lets v escape, so converting a
// message to any for the call does not allocate.
func appendWire(b []byte, v any) ([]byte, bool) {
	switch m := v.(type) {
	case api.SubmitRequest:
		if !finite(m.At) || !finite(m.Deadline) {
			return b, false
		}
		b = append(b, `{"device":`...)
		b = strconv.AppendInt(b, int64(m.Device), 10)
		b = append(b, `,"at":`...)
		b = appendFloat(b, m.At)
		b = append(b, `,"app":`...)
		b = appendString(b, m.App)
		b = append(b, `,"deadline":`...)
		b = appendFloat(b, m.Deadline)
		return append(b, '}'), true
	case api.AdvanceRequest:
		if !finite(m.To) {
			return b, false
		}
		b = append(b, `{"device":`...)
		b = strconv.AppendInt(b, int64(m.Device), 10)
		b = append(b, `,"to":`...)
		b = appendFloat(b, m.To)
		return append(b, '}'), true
	case api.CancelRequest:
		b = append(b, `{"device":`...)
		b = strconv.AppendInt(b, int64(m.Device), 10)
		b = append(b, `,"job_id":`...)
		b = strconv.AppendInt(b, int64(m.JobID), 10)
		return append(b, '}'), true
	case api.SubmitResult:
		if !finiteCompletions(m.Completions) {
			return b, false
		}
		b = append(b, `{"job_id":`...)
		b = strconv.AppendInt(b, int64(m.JobID), 10)
		b = append(b, `,"accepted":`...)
		b = strconv.AppendBool(b, m.Accepted)
		if len(m.Completions) > 0 {
			b = append(b, ',')
			b = appendCompletions(b, m.Completions)
		}
		return append(b, '}'), true
	case api.AdvanceResult:
		if !finiteCompletions(m.Completions) {
			return b, false
		}
		b = append(b, '{')
		if len(m.Completions) > 0 {
			b = appendCompletions(b, m.Completions)
		}
		return append(b, '}'), true
	case api.CancelResult:
		b = append(b, `{"cancelled":`...)
		b = strconv.AppendBool(b, m.Cancelled)
		return append(b, '}'), true
	}
	return b, false
}

// appendCompletions appends the "completions" member (key and array).
func appendCompletions(b []byte, cs []api.Completion) []byte {
	b = append(b, `"completions":[`...)
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"job_id":`...)
		b = strconv.AppendInt(b, int64(c.JobID), 10)
		b = append(b, `,"at":`...)
		b = appendFloat(b, c.At)
		if c.Missed {
			b = append(b, `,"missed":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func finiteCompletions(cs []api.Completion) bool {
	for _, c := range cs {
		if !finite(c.At) {
			return false
		}
	}
	return true
}

// appendFloat formats a finite float64 as encoding/json does: like
// strconv 'f' with the shortest round-trip precision, switching to 'e'
// below 1e-6 and from 1e21 up, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on: quotes, backslashes, control characters and
// <, > and & escape; invalid UTF-8 becomes U+FFFD; U+2028 and
// U+2029 escape.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 { // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// parseWire decodes data into *into when into points at a hot message
// and data is in the canonical subset (see the top of this file). The
// target must be zero on entry, except that a result's Completions
// backing array is reused. On false, *into may hold a partial decode
// and the caller must start over from a zero value.
func parseWire(data []byte, into any) bool {
	s := scanner{b: data}
	var seen uint8
	switch m := into.(type) {
	case *api.SubmitRequest:
		for s.open(); s.more(); {
			switch string(s.key) {
			case "device":
				s.once(&seen, 1)
				s.int(&m.Device)
			case "at":
				s.once(&seen, 2)
				s.float(&m.At)
			case "app":
				s.once(&seen, 4)
				s.string(&m.App)
			case "deadline":
				s.once(&seen, 8)
				s.float(&m.Deadline)
			default:
				s.bad = true
			}
		}
	case *api.AdvanceRequest:
		for s.open(); s.more(); {
			switch string(s.key) {
			case "device":
				s.once(&seen, 1)
				s.int(&m.Device)
			case "to":
				s.once(&seen, 2)
				s.float(&m.To)
			default:
				s.bad = true
			}
		}
	case *api.CancelRequest:
		for s.open(); s.more(); {
			switch string(s.key) {
			case "device":
				s.once(&seen, 1)
				s.int(&m.Device)
			case "job_id":
				s.once(&seen, 2)
				s.int(&m.JobID)
			default:
				s.bad = true
			}
		}
	case *api.SubmitResult:
		reuse := m.Completions[:0]
		m.Completions = nil
		for s.open(); s.more(); {
			switch string(s.key) {
			case "job_id":
				s.once(&seen, 1)
				s.int(&m.JobID)
			case "accepted":
				s.once(&seen, 2)
				s.bool(&m.Accepted)
			case "completions":
				s.once(&seen, 4)
				m.Completions = s.completions(reuse)
			default:
				s.bad = true
			}
		}
	case *api.AdvanceResult:
		reuse := m.Completions[:0]
		m.Completions = nil
		for s.open(); s.more(); {
			s.bad = s.bad || string(s.key) != "completions"
			s.once(&seen, 1)
			m.Completions = s.completions(reuse)
		}
	case *api.CancelResult:
		for s.open(); s.more(); {
			s.bad = s.bad || string(s.key) != "cancelled"
			s.once(&seen, 1)
			s.bool(&m.Cancelled)
		}
	default:
		return false
	}
	return !s.bad
}

// scanner is the canonical-subset reader behind parseWire. A method
// meeting anything outside the subset sets bad, and every method is a
// no-op once bad is set, so a parse reads straight through and checks
// bad once at the end. Nothing allocates except string, which copies
// the decoded value.
type scanner struct {
	b   []byte
	i   int
	bad bool
	// key is the current member's key (aliasing b), first whether more
	// has yet to read the first member of the current object.
	key   []byte
	first bool
}

// skip advances past JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.skip()
	if !s.bad && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// open consumes the opening brace of an object; more then steps through
// its members. Whatever follows the closing brace is never read.
func (s *scanner) open() {
	s.bad = s.bad || !s.lit('{')
	s.first = true
}

// more reads the next member's key and colon into s.key, reporting
// false at the closing brace of the object or once bad.
func (s *scanner) more() bool {
	if s.bad {
		return false
	}
	if s.first {
		s.first = false
		if s.lit('}') {
			return false
		}
	} else if !s.lit(',') {
		s.bad = !s.lit('}')
		return false
	}
	key, ok := s.raw()
	s.key = key
	s.bad = !ok || !s.lit(':')
	return !s.bad
}

// once marks a key in seen, refusing a key met before (encoding/json
// lets the last duplicate win; the fallback reproduces that).
func (s *scanner) once(seen *uint8, bit uint8) {
	s.bad = s.bad || *seen&bit != 0
	*seen |= bit
}

// raw reads a string without escapes, control characters or non-ASCII
// bytes and returns its contents, which alias the input.
func (s *scanner) raw() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) string(into *string) {
	if v, ok := s.raw(); ok {
		*into = string(v)
	} else {
		s.bad = true
	}
}

func (s *scanner) bool(into *bool) {
	s.skip()
	if s.bad {
		return
	}
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*into, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*into, s.i = false, s.i+5
	default:
		s.bad = true
	}
}

// number reads one token of the JSON number grammar and reports whether
// it is integral (no fraction, no exponent).
func (s *scanner) number() (tok []byte, integral bool) {
	s.skip()
	if s.bad {
		return nil, false
	}
	b, i := s.b, s.i
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		s.bad = true
		return nil, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		s.bad = !digits()
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		s.bad = s.bad || !digits()
		integral = false
	}
	tok, s.i = b[s.i:i], i
	return tok, integral
}

// int reads an integer the way encoding/json decodes one into an int:
// no fraction or exponent, and within range.
func (s *scanner) int(into *int) {
	tok, integral := s.number()
	if s.bad || !integral {
		s.bad = true
		return
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		s.bad = true
		return
	}
	*into = int(n)
}

func (s *scanner) float(into *float64) {
	tok, _ := s.number()
	if s.bad {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.bad = true
		return
	}
	*into = f
}

// completions reads an array of Completion objects, appending to reuse.
// An empty array yields an empty, non-nil slice, as encoding/json
// decodes it.
func (s *scanner) completions(reuse []api.Completion) []api.Completion {
	if !s.lit('[') {
		s.bad = true
		return nil
	}
	out := reuse
	if out == nil {
		out = []api.Completion{}
	}
	if s.lit(']') {
		return out
	}
	for !s.bad {
		var c api.Completion
		var seen uint8
		for s.open(); s.more(); {
			switch string(s.key) {
			case "job_id":
				s.once(&seen, 1)
				s.int(&c.JobID)
			case "at":
				s.once(&seen, 2)
				s.float(&c.At)
			case "missed":
				s.once(&seen, 4)
				s.bool(&c.Missed)
			default:
				s.bad = true
			}
		}
		out = append(out, c)
		if !s.lit(',') {
			s.bad = s.bad || !s.lit(']')
			break
		}
	}
	return out
}

// bufPool recycles the body buffers of both sides. Buffers that grew
// past maxPooledBuf (a large batch or stats body) are dropped rather
// than kept alive.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// errReader replays a read error after the bytes read before it, so a
// fallback json.Decoder sees the same stream the body produced.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readDecode fills *into from a body: the whole body is read into buf,
// the fast path tries the bytes, and otherwise a json.Decoder (built by
// newDec, so the caller sets its options) decodes the first value of
// the same byte stream — including a read error where the body had one.
// The fallback decodes into a fresh value that is copied to *into, so
// *into never escapes to the heap on the fast path.
func readDecode[T any](body io.Reader, buf *bytes.Buffer, into *T, strict bool) error {
	_, rerr := buf.ReadFrom(body)
	data := buf.Bytes()
	if rerr == nil && parseWire(data, any(into)) {
		return nil
	}
	var src io.Reader = bytes.NewReader(data)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	if strict {
		dec.DisallowUnknownFields()
	}
	v := new(T)
	err := dec.Decode(v)
	*into = *v
	return err
}

// marshalWire encodes v for a request body: the fast path when v is a
// hot message, json.Marshal otherwise (and for anything it refuses).
func marshalWire[T any](v T) ([]byte, error) {
	if b, ok := appendWire(make([]byte, 0, 96), any(v)); ok {
		return b, nil
	}
	return json.Marshal(v)
}
