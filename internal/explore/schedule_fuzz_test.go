package explore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSchedule feeds Parse arbitrary schedule-file contents (what
// `lwgcheck -replay` reads): it must not panic, what parses stays inside
// the bounds a runner relies on, and Encode of it is a fixed point of
// Parse → Encode. Seeds: generated schedules, every pinned reproducer
// under testdata/, and the committed corpus.
func FuzzParseSchedule(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(Encode(Random(seed, GenConfig{Nodes: 5, Ops: 12, LWGs: 2, Crashes: 1})))
	}
	pinned, err := filepath.Glob("testdata/*/*.schedule")
	if err != nil || len(pinned) == 0 {
		f.Fatalf("no pinned schedules to seed from (%v)", err)
	}
	for _, path := range pinned {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if s.Nodes < 1 || s.Nodes > MaxNodes {
			t.Fatalf("parsed a schedule of %d nodes", s.Nodes)
		}
		for _, op := range s.Ops {
			if op.P < 0 || op.Cut < 0 {
				t.Fatalf("parsed op %+v with a negative index", op)
			}
		}
		enc := Encode(s)
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of an encoded schedule: %v\n%s", err, enc)
		}
		if got := Encode(again); got != enc {
			t.Fatalf("Parse → Encode → Parse changed the schedule:\n%s\nvs\n%s", enc, got)
		}
	})
}
