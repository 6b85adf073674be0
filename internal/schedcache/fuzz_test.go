package schedcache

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
)

// FuzzSharedLoad feeds Shared.Load arbitrary bytes and a hostile entry.
//
// Bytes: Load never panics or hangs; what it accepts is a fixed point of
// Save → Load → Save, and no proper prefix of the canonical form loads.
//
// Entry: a well-formed document whose one entry sits on a real shape's
// signature but places canonical job jobIdx on operating point point is
// either refused by Load or, at lookup, served validated or counted as a
// stale miss — an index out of range never reaches a table.
func FuzzSharedLoad(f *testing.F) {
	old, err := os.ReadFile("testdata/warm-v1-no-records.json")
	if err != nil {
		f.Fatal(err)
	}
	withRecords := bytes.Replace(old, []byte(`"assignment":[0]`), []byte(`"searched":500,"assignment":[0]`), 1)
	withRecords = bytes.Replace(withRecords, []byte(`"exact":true,`), []byte(fmt.Sprintf(`"exact":true,"searched":%d,`, SearchComplete)), 1)
	entriesFirst := `{"entries":[{"sig":"x","njobs":1,"energy":1,"searched":7,"segments":[{"start":0,"end":1,"placements":[{"job":0,"point":0}]}]}],"version":1}`
	f.Add(old, 0, 0)
	f.Add(withRecords, 0, 2)
	f.Add([]byte(entriesFirst), 1, 0)
	f.Add([]byte(`{"version":1,"entries":[]}`), -1, 1<<40)
	f.Add([]byte(`{"version":1,"extra":{"a":[1,2]},"entries":[],"entries":[]} trailing`), 0, -1)

	plat := motiv.Platform()
	jobs := job.Set{testJob(1, "lambda1", 0, 9, 1)}
	sig := NewSignature(jobs, plat, 0, Params{})

	f.Fuzz(func(t *testing.T, data []byte, jobIdx, point int) {
		s := NewShared()
		if err := s.Load(bytes.NewReader(data)); err == nil {
			canon := saveBytes(t, s)
			again := NewShared()
			if err := again.Load(bytes.NewReader(canon)); err != nil {
				t.Fatalf("Save output refused: %v\n%s", err, canon)
			}
			if got := saveBytes(t, again); !bytes.Equal(got, canon) {
				t.Fatalf("Save → Load → Save moved:\n%s\nvs\n%s", got, canon)
			}
			// Everything up to the closing brace is needed; only the
			// final newline is not.
			cut := len(data) % (len(canon) - 1)
			if err := NewShared().Load(bytes.NewReader(canon[:cut])); err == nil {
				t.Fatalf("truncated stream accepted: %q", canon[:cut])
			}
		}

		doc := fmt.Sprintf(`{"version":1,"entries":[{"sig":%q,"njobs":1,"energy":1,"assignment":[%d],`+
			`"segments":[{"start":0,"end":5.3,"placements":[{"job":%d,"point":%d}]}]}]}`, sig, point, jobIdx, point)
		tier := NewShared()
		if err := tier.Load(bytes.NewReader([]byte(doc))); err != nil {
			if jobIdx == 0 {
				t.Fatalf("entry with an in-range job index refused: %v", err)
			}
			return
		}
		c := New(Params{})
		c.AttachShared(tier)
		k, ok := c.Lookup(jobs, plat, 0)
		st := c.Stats()
		switch {
		case ok:
			if err := k.Validate(plat, jobs, 0); err != nil {
				t.Fatalf("served an invalid schedule: %v", err)
			}
		case st.Stale != 1 || st.Misses != 1:
			t.Fatalf("unusable entry not counted as a stale miss: %+v", st)
		}
	})
}
