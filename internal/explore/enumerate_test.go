package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseScope(t *testing.T) {
	for text, want := range map[string]Scope{
		"n3g2":   {Nodes: 3, Groups: 2},
		"n4g1c1": {Nodes: 4, Groups: 1, Crashes: 1},
		"n2g1":   {Nodes: 2, Groups: 1},
	} {
		got, err := ParseScope(text)
		if err != nil {
			t.Fatalf("ParseScope(%q): %v", text, err)
		}
		if got.Nodes != want.Nodes || got.Groups != want.Groups || got.Crashes != want.Crashes {
			t.Fatalf("ParseScope(%q) = %+v, want %+v", text, got, want)
		}
		if got.String() != text {
			t.Fatalf("Scope round-trip: %q -> %q", text, got.String())
		}
		if got.OpDelay <= 0 || got.Settle <= 0 || got.Quiesce <= 0 {
			t.Fatalf("ParseScope(%q) left zero delays: %+v", text, got)
		}
	}
	for _, bad := range []string{
		"", "n3", "g2", "n1g1", "n9g1", "n3g0", "n3g4", "n3g2c2", "n3g2x", "n3g2 ",
	} {
		if _, err := ParseScope(bad); err == nil {
			t.Fatalf("ParseScope(%q) accepted", bad)
		}
	}
}

// TestEnumerateDeterminism: the same config must visit the same states in
// the same order and produce identical findings — the sweep is a pure
// function of the scope, which is what makes checkpoint slicing and CI
// reruns meaningful.
func TestEnumerateDeterminism(t *testing.T) {
	cfg := EnumConfig{
		Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		Depth: 3,
	}
	a := Enumerate(cfg)
	b := Enumerate(cfg)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ across runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Swept != b.Swept {
		t.Fatalf("swept differs: %v vs %v", a.Swept, b.Swept)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if Encode(a.Findings[i].Schedule) != Encode(b.Findings[i].Schedule) {
			t.Fatalf("finding %d schedules differ", i)
		}
	}
}

// TestEnumerateSweepsTinyScope: the smallest scope must close its state
// graph (Swept) with zero findings — it is the CI smoke's contract.
func TestEnumerateSweepsTinyScope(t *testing.T) {
	res := Enumerate(EnumConfig{
		Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		Depth: 4,
	})
	if !res.Swept {
		t.Fatalf("tiny scope did not sweep: %+v", res.Stats)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("tiny scope found %d wedges; first: %s",
			len(res.Findings), Encode(res.Findings[0].Schedule))
	}
	if res.Stats.Visited == 0 || res.Stats.Runs <= res.Stats.Visited {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
	if res.Checkpoint != nil {
		t.Fatal("swept result still carries a checkpoint")
	}
}

// TestEnumerateResume: a budget-sliced sweep (run, checkpoint, resume)
// must land on exactly the same visited-state count and findings as one
// uninterrupted sweep.
func TestEnumerateResume(t *testing.T) {
	cfg := EnumConfig{
		Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		Depth: 4,
	}
	full := Enumerate(cfg)
	if !full.Swept {
		t.Fatalf("full sweep did not close: %+v", full.Stats)
	}

	slice := cfg
	slice.Budget = 40
	res := Enumerate(slice)
	rounds := 0
	for res.Checkpoint != nil {
		if rounds++; rounds > 100 {
			t.Fatal("resume not converging")
		}
		// Round-trip the checkpoint through its text form, as CI would.
		cp, err := ParseCheckpoint(EncodeCheckpoint(res.Checkpoint))
		if err != nil {
			t.Fatalf("checkpoint round-trip: %v", err)
		}
		if !reflect.DeepEqual(cp, res.Checkpoint) {
			t.Fatal("checkpoint changed across encode/parse")
		}
		slice.Resume = cp
		res = Enumerate(slice)
	}
	if !res.Swept {
		t.Fatalf("sliced sweep did not close: %+v", res.Stats)
	}
	if res.Stats.Visited != full.Stats.Visited || res.Stats.Pruned != full.Stats.Pruned {
		t.Fatalf("sliced sweep diverged: %+v vs full %+v", res.Stats, full.Stats)
	}
	if len(res.Findings) != len(full.Findings) {
		t.Fatalf("sliced findings %d, full %d", len(res.Findings), len(full.Findings))
	}
}

// TestEnumerateProgressHeartbeat: with Progress set, the sweep emits
// heartbeat lines carrying the live counters, and the heartbeat changes
// nothing about the result (it is observation only).
func TestEnumerateProgressHeartbeat(t *testing.T) {
	cfg := EnumConfig{
		Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		Depth: 3,
	}
	quiet := Enumerate(cfg)

	var lines []string
	loud := cfg
	loud.Progress = time.Nanosecond // fire on every consumption
	loud.Log = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	res := Enumerate(loud)
	if !reflect.DeepEqual(res.Stats, quiet.Stats) {
		t.Fatalf("heartbeat changed the sweep: %+v vs %+v", res.Stats, quiet.Stats)
	}

	beats := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "progress: ") {
			continue
		}
		beats++
		for _, field := range []string{"states", "/s)", "runs", "pruned", "frontier", "deepest"} {
			if !strings.Contains(l, field) {
				t.Fatalf("heartbeat line missing %q: %s", field, l)
			}
		}
	}
	if beats == 0 {
		t.Fatalf("no heartbeat lines among %d log lines", len(lines))
	}
	// The final heartbeat reflects the completed sweep's run count.
	last := lines[len(lines)-1]
	if !strings.Contains(last, fmt.Sprintf("%d runs", res.Stats.Runs)) {
		t.Fatalf("last heartbeat does not carry the final run count (%d): %s",
			res.Stats.Runs, last)
	}
	// With the memo on, the heartbeat reports the hit rate too.
	lines = nil
	loud.ProbeMemo = true
	Enumerate(loud)
	found := false
	for _, l := range lines {
		if strings.Contains(l, "memo-hit ") && strings.Contains(l, "%") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no memo-hit rate in heartbeats with ProbeMemo on:\n%s",
			strings.Join(lines, "\n"))
	}
}

// TestEnumeratedScheduleShrinks: ddmin must operate on an enumerated
// schedule's explicit op list (no seed regeneration involved) and keep
// its provenance through Encode/Parse.
func TestEnumeratedScheduleShrinks(t *testing.T) {
	sc, err := ParseScope("n3g2")
	if err != nil {
		t.Fatal(err)
	}
	s := sc.schedule([]Op{
		{Delay: 50 * time.Millisecond, Kind: OpJoin, P: 0, LWG: "a"},
		{Delay: 50 * time.Millisecond, Kind: OpWait},
		{Delay: 50 * time.Millisecond, Kind: OpJoin, P: 1, LWG: "a"},
		{Delay: 50 * time.Millisecond, Kind: OpSend, P: 1, LWG: "a"},
	})
	// A synthetic failure predicate: "fails" while the two joins survive.
	fails := func(c Schedule) bool {
		joins := 0
		for _, o := range c.Ops {
			if o.Kind == OpJoin {
				joins++
			}
		}
		return joins == 2
	}
	min := Shrink(s, fails)
	if len(min.Ops) != 2 {
		t.Fatalf("shrunk to %d ops, want the 2 joins:\n%s", len(min.Ops), Encode(min))
	}
	if min.Origin != s.Origin {
		t.Fatalf("shrink lost origin: %q", min.Origin)
	}

	// The reproducer of an enumerated schedule must not suggest a seed
	// sweep (a seed cannot regenerate it), and must survive a replay
	// round-trip.
	rep := Reproducer(min, false)
	if strings.Contains(rep, "-seeds 1") {
		t.Fatalf("enumerated reproducer suggests a seed sweep:\n%s", rep)
	}
	if !strings.Contains(rep, "-enumerate") {
		t.Fatalf("enumerated reproducer lost its origin hint:\n%s", rep)
	}
	back, err := Parse(Encode(min))
	if err != nil {
		t.Fatal(err)
	}
	if Encode(back) != Encode(min) {
		t.Fatal("enumerated schedule does not round-trip")
	}
}

// TestEnumFindingsReplay replays the committed reproducers of every
// protocol bug the enumerator found, pinned under testdata/enum. Each
// wedged a group forever before its fix; all must pass now.
func TestEnumFindingsReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "enum", "*.schedule"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed enumerator reproducers found")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			r := Run(s)
			if r.Failed() {
				t.Fatalf("reproducer still fails (completed=%v):\n%s",
					r.Completed, summary(r))
			}
		})
	}
}

func summary(r Result) string {
	out := ""
	for _, v := range r.Violations {
		out += v.String() + "\n"
	}
	return out
}
