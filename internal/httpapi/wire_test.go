package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"adaptrm/internal/api"
)

// wireSamples returns one instance of every message the wire codec
// encodes, exercising the formatting corners: the float switch to
// exponent form at 1e-6 and 1e21, negative zero, HTML-escaped and
// non-ASCII app names, invalid UTF-8, the line and paragraph separators
// (U+2028, U+2029) and omitempty on completions.
func wireSamples() []any {
	apps := []string{"lambda1", "", "<a>&b", "λ-app", "bad\xffutf8", "quote\"back\\slash", "tab\tnl\n\x01", "sep\xe2\x80\xa8\xe2\x80\xa9", "del\x7f"}
	floats := []float64{0, math.Copysign(0, -1), 1.5, 1e21, 1e20, 1e-7, 1e-6, 123456789.125, -2.5e-9, 5e-324, math.MaxFloat64}
	var out []any
	for i, app := range apps {
		f := floats[i%len(floats)]
		out = append(out, api.SubmitRequest{Device: i - 2, At: f, App: app, Deadline: floats[(i+3)%len(floats)]})
	}
	for _, f := range floats {
		out = append(out,
			api.AdvanceRequest{Device: 3, To: f},
			api.SubmitResult{JobID: 7, Accepted: true, Completions: []api.Completion{{JobID: 1, At: f}, {JobID: 2, At: -f, Missed: true}}},
			api.AdvanceResult{Completions: []api.Completion{{JobID: 9, At: f, Missed: true}}},
		)
	}
	out = append(out,
		api.CancelRequest{Device: 1, JobID: -5},
		api.CancelRequest{Device: math.MaxInt, JobID: math.MinInt},
		api.CancelResult{Cancelled: true},
		api.CancelResult{},
		api.SubmitResult{},
		api.SubmitResult{Completions: []api.Completion{}},
		api.AdvanceResult{},
	)
	return out
}

// TestWireEncodingMatchesMarshal pins the wire bytes: every hot message
// encodes to exactly what json.Marshal produces.
func TestWireEncodingMatchesMarshal(t *testing.T) {
	for _, m := range wireSamples() {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendWire(nil, m)
		if !ok {
			t.Errorf("%#v: codec declined", m)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%#v:\n got %s\nwant %s", m, got, want)
		}
	}
	// Non-finite floats and other types fall back to encoding/json, which
	// refuses the former.
	for _, m := range []any{
		api.SubmitRequest{At: math.NaN()},
		api.AdvanceRequest{To: math.Inf(1)},
		api.SubmitResult{Completions: []api.Completion{{At: math.Inf(-1)}}},
		api.StatsResult{},
		errEnvelope{Error: api.ErrInternal, Result: api.CancelResult{}},
	} {
		if b, ok := appendWire([]byte("x"), m); ok || string(b) != "x" {
			t.Errorf("%#v: codec accepted (%s)", m, b)
		}
	}
}

// referenceDecode decodes data the way the transport's fallback does —
// a json.Decoder reading the first value, strict or not — into a fresh
// value of the same type as into.
func referenceDecode(data []byte, into any, strict bool) (any, error) {
	v := reflect.New(reflect.TypeOf(into).Elem())
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v.Interface())
	return v.Interface(), err
}

// hotTargets returns fresh zero values of every message parseWire
// decodes.
func hotTargets() []any {
	return []any{
		new(api.SubmitRequest), new(api.AdvanceRequest), new(api.CancelRequest),
		new(api.SubmitResult), new(api.AdvanceResult), new(api.CancelResult),
	}
}

// checkParse asserts the codec's contract on one input: whenever the
// fast path accepts, encoding/json accepts too and decodes the same
// value, both with and without DisallowUnknownFields.
func checkParse(t *testing.T, data []byte) {
	t.Helper()
	for _, target := range hotTargets() {
		if !parseWire(data, target) {
			continue
		}
		for _, strict := range []bool{true, false} {
			want, err := referenceDecode(data, target, strict)
			if err != nil {
				t.Fatalf("%T: fast path accepted %q, encoding/json (strict %v) refused: %v", target, data, strict, err)
			}
			if !reflect.DeepEqual(target, want) {
				t.Fatalf("%T from %q: fast %#v, encoding/json %#v", target, data, target, want)
			}
		}
	}
}

// TestWireParseMatchesDecoder: the canonical bodies the encoder writes
// take the fast path (unless they carry escapes or non-ASCII bytes),
// and what it decodes is what encoding/json decodes.
func TestWireParseMatchesDecoder(t *testing.T) {
	for _, m := range wireSamples() {
		b, _ := appendWire(nil, m)
		target := reflect.New(reflect.TypeOf(m)).Interface()
		plain := !bytes.ContainsAny(b, "\\") && bytes.IndexFunc(b, func(r rune) bool { return r >= 0x80 }) < 0
		if !parseWire(b, target) {
			if plain {
				t.Errorf("canonical %s declined as %T", b, target)
			}
			continue
		}
		// omitempty makes the round trip lossy (an empty completion list
		// comes back nil), so compare the re-encoding.
		if again, _ := appendWire(nil, reflect.ValueOf(target).Elem().Interface()); !bytes.Equal(again, b) {
			t.Errorf("%s: re-encodes as %s", b, again)
		}
		checkParse(t, b)
	}
	for _, in := range []string{
		`{}`, ` { } `, `{"device":1}x`, `{"completions":[]}`, `{"completions":[{"job_id":1,"at":2,"missed":false}]}`,
		`{"job_id":-0,"accepted":false}`, `{"to":-0.0}`, `{"at":1E+2}`, `{"cancelled":true} trailing`,
	} {
		checkParse(t, []byte(in))
	}
}

// FuzzWireCodec is the differential check of the wire codec against
// encoding/json. For any body, whatever the fast path accepts must be
// accepted by encoding/json and decode to the same value; for any
// message built from the fuzzed fields, the encoder's bytes must equal
// json.Marshal's.
func FuzzWireCodec(f *testing.F) {
	for _, m := range wireSamples() {
		b, _ := json.Marshal(m)
		f.Add(b, "lambda1", 1, 2.5, 9.0, true)
	}
	f.Add([]byte(`{"Device":1,"app":"`+`\`+`u006c"}`), "<>&", -1, math.Copysign(0, -1), 1e21, false)
	f.Add([]byte(`{"device":1,"device":2}`), "λ\xff\xe2\x80\xa8", 0, 1e-7, 1e-6, true)
	f.Add([]byte(`{"completions":[{"at":1e400}]}`), "", 1<<40, 5e-324, -1e300, false)
	f.Fuzz(func(t *testing.T, body []byte, app string, n int, x, y float64, flag bool) {
		checkParse(t, body)
		if !finite(x) || !finite(y) {
			return
		}
		cs := []api.Completion{{JobID: n, At: x, Missed: flag}, {JobID: -n, At: y}}
		for _, m := range []any{
			api.SubmitRequest{Device: n, At: x, App: app, Deadline: y},
			api.AdvanceRequest{Device: n, To: x},
			api.CancelRequest{Device: n, JobID: -n},
			api.SubmitResult{JobID: n, Accepted: flag, Completions: cs},
			api.AdvanceResult{Completions: cs[:n&1]},
			api.CancelResult{Cancelled: flag},
		} {
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := appendWire(nil, m)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("%#v: codec %s (ok %v), json.Marshal %s", m, got, ok, want)
			}
			checkParse(t, got)
		}
	})
}

// BenchmarkWireCodec encodes and decodes every hot message into reused
// buffers, the per-hop codec work of a routed admission. The allocs
// gate pins it: the decoded app string is the only allocation.
func BenchmarkWireCodec(b *testing.B) {
	sreq := api.SubmitRequest{Device: 12, At: 1234.5625, App: "speaker-recognition", Deadline: 1240.125}
	sres := api.SubmitResult{JobID: 4711, Accepted: true, Completions: []api.Completion{{JobID: 4700, At: 1233.25}, {JobID: 4702, At: 1234}}}
	areq := api.AdvanceRequest{Device: 12, To: 1300}
	ares := api.AdvanceResult{Completions: []api.Completion{{JobID: 4711, At: 1239.5}}}
	creq := api.CancelRequest{Device: 12, JobID: 4711}
	cres := api.CancelResult{Cancelled: true}
	var (
		buf = make([]byte, 0, 512)
		ok  bool
		sr  api.SubmitRequest
		srs = api.SubmitResult{Completions: make([]api.Completion, 0, 4)}
		ar  api.AdvanceRequest
		ars = api.AdvanceResult{Completions: make([]api.Completion, 0, 4)}
		cr  api.CancelRequest
		crs api.CancelResult
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr = api.SubmitRequest{}
		if buf, ok = appendWire(buf[:0], sreq); !ok || !parseWire(buf, &sr) {
			b.Fatal("submit request")
		}
		if buf, ok = appendWire(buf[:0], sres); !ok || !parseWire(buf, &srs) {
			b.Fatal("submit result")
		}
		if buf, ok = appendWire(buf[:0], areq); !ok || !parseWire(buf, &ar) {
			b.Fatal("advance request")
		}
		if buf, ok = appendWire(buf[:0], ares); !ok || !parseWire(buf, &ars) {
			b.Fatal("advance result")
		}
		if buf, ok = appendWire(buf[:0], creq); !ok || !parseWire(buf, &cr) {
			b.Fatal("cancel request")
		}
		if buf, ok = appendWire(buf[:0], cres); !ok || !parseWire(buf, &crs) {
			b.Fatal("cancel result")
		}
	}
	b.StopTimer()
	if sr != sreq || !reflect.DeepEqual(srs, sres) || !reflect.DeepEqual(ars, ares) || cr != creq || crs != cres {
		b.Fatal("round trip changed a message")
	}
}
