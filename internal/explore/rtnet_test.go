package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plwg/internal/ids"
)

func TestFaultsRoundTrip(t *testing.T) {
	s := Random(3, smallCfg())
	s.Faults = "loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms;3:block"
	enc := Encode(s)
	if !strings.Contains(enc, "\nfaults loss=0.05") {
		t.Fatalf("faults line missing:\n%s", enc)
	}
	got, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse(Encode(s)): %v\n%s", err, enc)
	}
	if got.Faults != s.Faults {
		t.Fatalf("faults round trip: %q vs %q", got.Faults, s.Faults)
	}
	if Encode(got) != enc {
		t.Fatalf("round trip changed the schedule:\n%s\nvs\n%s", enc, Encode(got))
	}

	// A spec faults.Parse rejects is rejected by the schedule parser,
	// whichever clock would run it; the old directive is gone.
	for _, bad := range []string{"faults loss=2.5", "faults wibble", "rtfaults loss=0.05"} {
		if _, err := Parse("schedule v1\nnodes 3\n" + bad + "\n"); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func TestRunRTRejectsBadFaultSpec(t *testing.T) {
	s := Random(1, smallCfg())
	s.Faults = "loss=2.5"
	if _, err := Loopback(RTOptions{}).Run(s); err == nil {
		t.Fatal("the loopback clock accepted an out-of-range loss probability")
	}
	bad := smallCfg()
	bad.Faults = "wibble"
	for _, c := range []Clock{{}, Loopback(RTOptions{})} {
		if _, err := Sweep(c, 1, 1, bad, 1, nil); err == nil {
			t.Fatalf("Sweep (loopback=%v) accepted an unknown fault item", c.rt != nil)
		}
	}
}

// TestReproducerHintPerClock pins the replay recipe on both clocks: the
// clock comes from the caller, not from the fault line, and the seed
// hint carries the fault spec so it regenerates the same schedule.
func TestReproducerHintPerClock(t *testing.T) {
	g := smallCfg()
	g.Faults = "loss=0.15;2:block"
	s := Random(7, g)
	hint := fmt.Sprintf("-seeds 1 -start 7 -nodes 5 -ops %d -faults 'loss=0.15;2:block'\n", len(s.Ops))
	for _, tc := range []struct {
		clock Clock
		mode  string
	}{{Clock{}, ""}, {Loopback(RTOptions{}), "-rtnet "}} {
		rep := Reproducer(s, tc.clock)
		for _, want := range []string{
			"\nfaults loss=0.15;2:block\n",
			"# replay: go run ./cmd/lwgcheck " + tc.mode + "-replay <this file>\n",
			"# or:     go run ./cmd/lwgcheck " + tc.mode + hint,
		} {
			if !strings.Contains(rep, want) {
				t.Errorf("%q: reproducer lacks %q:\n%s", tc.mode, want, rep)
			}
		}
	}
	// A clean virtual schedule names no faults; a clean real-network one
	// must, or -rtnet would re-run it under lwgcheck's default faults.
	clean := Random(7, smallCfg())
	if rep := Reproducer(clean, Clock{}); strings.Contains(rep, "-faults") {
		t.Errorf("clean virtual reproducer names faults:\n%s", rep)
	}
	if rep := Reproducer(clean, Loopback(RTOptions{})); !strings.Contains(rep, "-faults ''\n") {
		t.Errorf("clean real-network reproducer omits -faults '':\n%s", rep)
	}
}

// TestRunRTSmoke runs one small hand-written schedule over real loopback
// UDP with the default fault mix plus an asymmetric partition, and
// expects a clean checker verdict. This is the explorer-side integration
// pin for the rtnet runner; the broad sweep lives in CI
// (lwgcheck -rtnet).
func TestRunRTSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	s := Schedule{
		Seed:  42,
		Nodes: 4,
		LWGs:  []ids.LWGID{"a"},
		Ops: []Op{
			{Delay: 200 * time.Millisecond, Kind: OpJoin, P: 1, LWG: "a"},
			{Delay: 200 * time.Millisecond, Kind: OpJoin, P: 2, LWG: "a"},
			{Delay: 400 * time.Millisecond, Kind: OpSend, P: 1, LWG: "a"},
			{Delay: 100 * time.Millisecond, Kind: OpPart, Cut: 2}, // one-way block
			{Delay: 600 * time.Millisecond, Kind: OpSend, P: 2, LWG: "a"},
			{Delay: 200 * time.Millisecond, Kind: OpHeal},
			{Delay: 200 * time.Millisecond, Kind: OpSend, P: 1, LWG: "a"},
		},
		Quiesce: 30 * time.Second,
		Faults:  "loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms",
	}
	// Real op delays: the schedule's own (already real-time sized here).
	// The quiesce override trims the default 30s tail: 2s stress + 10s
	// clean is still comfortably past the naming TTL (3s) and the FD
	// suspicion tolerance (~450ms).
	r, err := Loopback(RTOptions{Scale: 1, Quiesce: 12 * time.Second}).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("smoke schedule failed: completed=%v violations=%v",
			r.Completed, r.Violations)
	}
	if len(r.World.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
}

// TestRunRTConvergencePollsPastTheBell pins the deflake of the -rtnet
// sweep under -par contention. The committed schedule
// (testdata/rtnet/tight-quiesce.schedule) crashes a group member so its
// naming lease must expire (3s TTL) before the checker can pass, and the
// run uses a quiesce window tight enough that checking the state once
// when the window elapses is a coin flip on a loaded box — exactly the
// flake the parallel sweep used to produce, where wall-clock sleeps
// elapsed while the cluster's goroutines were starved. The loopback clock treats
// the window as a minimum and keeps polling within a bounded grace
// period until the checks pass, so this run must be robust even under
// CPU contention.
func TestRunRTConvergencePollsPastTheBell(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	text, err := os.ReadFile(filepath.Join("testdata", "rtnet", "tight-quiesce.schedule"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Loopback(RTOptions{Scale: 1, Quiesce: 4 * time.Second}).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("tight-quiesce schedule failed: completed=%v violations=%v",
			r.Completed, r.Violations)
	}
}
