package explore

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"plwg/internal/check"
	"plwg/internal/ids"
	"plwg/internal/trace"
)

// smallCfg keeps explorer unit tests fast: a few nodes, a short
// schedule, one group.
func smallCfg() GenConfig {
	return GenConfig{Nodes: 5, Ops: 16, LWGs: 2, Crashes: 1, Quiesce: 20 * time.Second}
}

func TestRandomIsDeterministic(t *testing.T) {
	a, b := Random(7, smallCfg()), Random(7, smallCfg())
	if Encode(a) != Encode(b) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", Encode(a), Encode(b))
	}
	if Encode(a) == Encode(Random(8, smallCfg())) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	s := Random(3, smallCfg())
	s.Fault = Fault{Node: 2, Drop: 5}
	got, err := Parse(Encode(s))
	if err != nil {
		t.Fatalf("Parse(Encode(s)): %v\n%s", err, Encode(s))
	}
	if Encode(got) != Encode(s) {
		t.Fatalf("round trip changed the schedule:\n%s\nvs\n%s", Encode(s), Encode(got))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"nonsense v1\nnodes 3\n",
		"schedule v1\nnodes 3\nop 100ms fly 1 a\n",
		"schedule v1\nnodes 3\nop 100ms join 1\n",
		"schedule v1\nlwgs a\n",           // nodes missing
		"schedule v1\nnodes 2000000000\n", // -replay would build that many endpoints
		"schedule v1\nnodes 65\n",
		"schedule v1\nnodes 0\n",
		"schedule v1\nnodes 3\nop 100ms join -1 a\n",
		"schedule v1\nnodes 3\nop 100ms crash -2\n",
		"schedule v1\nnodes 3\nop 100ms part -1\n",
		"schedule v1\nnodes 3\nfault -1 2\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

// TestParseLongLineKeepsTheRest: a line longer than any reader's token
// limit (bufio.Scanner's is 64 KiB) must not end the schedule early — a
// pinned reproducer would "replay clean" as the shorter schedule before
// it.
func TestParseLongLineKeepsTheRest(t *testing.T) {
	text := "schedule v1\nnodes 3\nlwgs a\nop 100ms join 1 a\n" +
		"origin " + strings.Repeat("x", 70_000) + "\n" +
		"op 100ms join 2 a\nop 100ms send 1 a\n"
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 3 || len(s.Origin) != 70_000 {
		t.Fatalf("parsed %d ops and %d bytes of origin, want 3 and 70000", len(s.Ops), len(s.Origin))
	}
}

// TestSweepReportsInSeedOrder: a parallel sweep reports every seed once,
// in seed order, with the serial sweep's verdicts and failing list.
func TestSweepReportsInSeedOrder(t *testing.T) {
	g := smallCfg()
	g.Faults = "loss=0.05"
	type verdict struct {
		seed       int64
		completed  bool
		violations int
	}
	sweep := func(par int) (got []verdict, failing []int64) {
		fs, err := Sweep(Clock{}, 1, 12, g, par, func(seed int64, r Result) {
			got = append(got, verdict{seed, r.Completed, len(r.Violations)})
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fs {
			failing = append(failing, s.Seed)
		}
		return got, failing
	}
	serial, serialFailing := sweep(1)
	for i, v := range serial {
		if v.seed != int64(i+1) {
			t.Fatalf("serial sweep reported seed %d at position %d", v.seed, i)
		}
	}
	par, parFailing := sweep(4)
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("par 4 reports differ from the serial sweep:\n%v\n%v", par, serial)
	}
	if !reflect.DeepEqual(parFailing, serialFailing) {
		t.Fatalf("par 4 failing seeds %v, serial %v", parFailing, serialFailing)
	}
}

// TestCleanSeedsPassAndReplayDeterministically is the explorer's core
// soundness property: correct protocol runs produce no violations, and a
// re-run of the same schedule reproduces the identical trace.
func TestCleanSeedsPassAndReplayDeterministically(t *testing.T) {
	failing, err := Sweep(Clock{}, 1, 3, smallCfg(), 1, func(seed int64, r Result) {
		if r.Failed() {
			s := Random(seed, smallCfg())
			t.Errorf("seed %d failed:\n%s\nreproduce:\n%s",
				seed, check.Summary(r.Violations), Reproducer(s, Clock{}))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failing) != 0 {
		t.Fatalf("%d clean seeds failed", len(failing))
	}

	s := Random(2, smallCfg())
	a, b := Run(s), Run(s)
	if len(a.World.Events) != len(b.World.Events) {
		t.Fatalf("replay diverged: %d events vs %d", len(a.World.Events), len(b.World.Events))
	}
	for i := range a.World.Events {
		if !sameEvent(a.World.Events[i], b.World.Events[i]) {
			t.Fatalf("replay diverged at event %d:\n%v\nvs\n%v",
				i, a.World.Events[i], b.World.Events[i])
		}
	}
}

// sameEvent compares events field-wise (Members/Parents are slices, so
// the struct is not directly comparable).
func sameEvent(a, b trace.Event) bool {
	return a.At == b.At && a.Node == b.Node && a.Layer == b.Layer &&
		a.What == b.What && a.Text == b.Text && a.Group == b.Group &&
		a.View == b.View && a.Src == b.Src && a.Data == b.Data &&
		a.Members.Equal(b.Members) && len(a.Parents) == len(b.Parents)
}

// findFaulted locates a (schedule, fault) pair whose injected delivery
// suppression the checker detects: it picks a node that delivered
// messages during a clean run and suppresses one of its deliveries.
func findFaulted(t *testing.T, cfg GenConfig) Schedule {
	t.Helper()
	for seed := int64(1); seed <= 10; seed++ {
		s := Random(seed, cfg)
		r := Run(s)
		if r.Failed() {
			t.Fatalf("seed %d failed without fault:\n%s", seed, check.Summary(r.Violations))
		}
		// Count deliveries per node; fault the busiest node's last
		// delivery is the hardest case (often in the final window), so
		// pick the middle one instead to land inside a closed window too.
		per := make(map[ids.ProcessID]int)
		for _, e := range r.World.Events {
			if e.Layer == "lwg" && e.What == trace.LWGDeliver {
				per[e.Node]++
			}
		}
		for node, n := range per {
			if n == 0 {
				continue
			}
			for _, drop := range []int{(n + 1) / 2, 1, n} {
				cand := s
				cand.Fault = Fault{Node: node, Drop: drop}
				if Run(cand).Failed() {
					return cand
				}
			}
		}
	}
	t.Fatal("no detectable fault found in 10 seeds")
	return Schedule{}
}

// TestInjectedFaultIsDetectedAndShrinks is the end-to-end acceptance
// path: a seeded schedule with an injected virtual-synchrony fault must
// fail the checker, shrink to a smaller reproducer, and replay
// deterministically from its encoded form.
func TestInjectedFaultIsDetectedAndShrinks(t *testing.T) {
	cfg := smallCfg()
	faulted := findFaulted(t, cfg)

	r := Run(faulted)
	if !r.Failed() {
		t.Fatal("faulted schedule did not fail")
	}
	hasVS := false
	for _, v := range r.Violations {
		if strings.HasPrefix(v.Invariant, "vs-") {
			hasVS = true
		}
	}
	if !hasVS {
		t.Fatalf("fault detected but not as a virtual-synchrony violation:\n%s",
			check.Summary(r.Violations))
	}

	runs := 0
	shrunk := Shrink(faulted, func(c Schedule) bool {
		runs++
		return Run(c).Failed()
	})
	if len(shrunk.Ops) >= len(faulted.Ops) {
		t.Errorf("shrink removed no ops: %d -> %d (%d candidate runs)",
			len(faulted.Ops), len(shrunk.Ops), runs)
	}
	if !Run(shrunk).Failed() {
		t.Fatal("shrunk schedule no longer fails")
	}

	// The reproducer replays: encode, parse, run — same violations.
	parsed, err := Parse(Encode(shrunk))
	if err != nil {
		t.Fatalf("reproducer does not parse: %v", err)
	}
	v1 := check.Summary(Run(parsed).Violations)
	v2 := check.Summary(Run(parsed).Violations)
	if v1 != v2 || v1 == "" {
		t.Fatalf("reproducer not deterministic:\n%s\nvs\n%s", v1, v2)
	}
	t.Logf("shrunk %d ops -> %d ops in %d runs; reproducer:\n%s",
		len(faulted.Ops), len(shrunk.Ops), runs, Reproducer(shrunk, Clock{}))
}

func TestInjectFault(t *testing.T) {
	evs := []trace.Event{
		{Layer: "lwg", What: trace.LWGDeliver, Node: 1, Data: "a"},
		{Layer: "lwg", What: trace.LWGDeliver, Node: 2, Data: "b"},
		{Layer: "lwg", What: trace.LWGDeliver, Node: 1, Data: "c"},
	}
	got := injectFault(evs, Fault{Node: 1, Drop: 2})
	if len(got) != 2 || got[0].Data != "a" || got[1].Data != "b" {
		t.Fatalf("injectFault dropped the wrong event: %v", got)
	}
	if n := len(injectFault(evs, Fault{})); n != 3 {
		t.Fatalf("no-fault pass-through lost events: %d", n)
	}
}

// TestRegressionSchedules replays the shrunk reproducers of protocol
// bugs found by past sweeps, pinned here so the exact interleavings stay
// covered without sweeping hundreds of seeds. Each schedule wedged a
// group forever before its fix (see EXPERIMENTS.md, "Found bugs").
func TestRegressionSchedules(t *testing.T) {
	for name, text := range map[string]string{
		// Seed 393: after a heal, the singleton side's merge initiation
		// was permanently blocked by a stale discovered peer view whose
		// minimum member had crashed.
		"stale-known-peer-blocks-merge": `schedule v1
seed 393
nodes 8
lwgs a,b,c
quiesce 30s
op 76ms join 5 c
op 105ms join 5 a
op 68.5ms join 7 c
op 65.5ms join 2 c
op 73.75ms part 3
op 297ms join 1 a
op 418ms heal
op 318ms crash 1
`,
		// Seed 487: a leaving coordinator's reconfig flush raced
		// MERGE-VIEWS; the merged view demoted it and its leave intent
		// was silently dropped.
		"leave-lost-to-merge-views": `schedule v1
seed 487
nodes 6
lwgs a,b,c
quiesce 30s
op 773ms join 4 b
op 271ms join 1 c
op 424ms join 4 c
op 335ms join 5 c
op 240ms join 2 b
op 756ms part 4
op 418ms policy
op 360ms heal
op 249ms leave 4 c
`,
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Parse(text)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if r := Run(s); r.Failed() {
				t.Fatalf("regression schedule fails again:\n%s", check.Summary(r.Violations))
			}
		})
	}
}
