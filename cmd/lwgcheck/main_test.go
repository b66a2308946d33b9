package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plwg/internal/explore"
	"plwg/internal/ids"
)

func TestSweepCleanSeeds(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-seeds", "2", "-nodes", "5", "-ops", "12", "-duration", "20s"}, &out)
	if err != nil {
		t.Fatalf("clean sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 seeds swept, 0 failing") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestReplayFaultedSchedule(t *testing.T) {
	// A schedule with an injected delivery suppression must fail, print
	// violations and a reproducer, and exit non-zero.
	s := explore.Random(2, explore.GenConfig{Nodes: 5, Ops: 12, LWGs: 2})
	s.Fault = explore.Fault{Node: firstDeliverer(t, s), Drop: 1}
	if !explore.Run(s).Failed() {
		t.Skip("fault not detectable on this schedule")
	}
	path := filepath.Join(t.TempDir(), "failing.schedule")
	if err := os.WriteFile(path, []byte(explore.Encode(s)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-replay", path}, &out)
	if err == nil {
		t.Fatalf("replay of failing schedule succeeded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "violations:") ||
		!strings.Contains(out.String(), "reproducer:") {
		t.Errorf("failure report incomplete:\n%s", out.String())
	}
}

// TestReplayFaultLineStaysVirtual: a schedule's faults line no longer
// picks the clock — without -rtnet the replay runs on the simulator, and
// the reproducer says so while carrying the spec into its seed hint. The
// clean link rule leaves the run identical to the unfaulted one.
func TestReplayFaultLineStaysVirtual(t *testing.T) {
	s := explore.Random(2, explore.GenConfig{Nodes: 5, Ops: 12, LWGs: 2})
	s.Fault = explore.Fault{Node: firstDeliverer(t, s), Drop: 1}
	s.Faults = "4:clean"
	path := filepath.Join(t.TempDir(), "faulted.schedule")
	if err := os.WriteFile(path, []byte(explore.Encode(s)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-replay", path}, &out); err == nil {
		t.Fatalf("replay of failing schedule succeeded:\n%s", out.String())
	}
	if strings.Contains(out.String(), "-rtnet") {
		t.Errorf("a faults line made the replay real-network:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "-faults '4:clean'") {
		t.Errorf("seed hint lost the fault spec:\n%s", out.String())
	}
}

func TestReplayRejectsBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.schedule")
	if err := os.WriteFile(path, []byte("not a schedule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-replay", path}, &out); err == nil {
		t.Fatal("garbage schedule accepted")
	}
}

// firstDeliverer returns a node that delivers at least one LWG message
// during a clean run of s.
func firstDeliverer(t *testing.T, s explore.Schedule) ids.ProcessID {
	t.Helper()
	r := explore.Run(s)
	for _, e := range r.World.Events {
		if e.Layer == "lwg" && e.What == "lwg-deliver" {
			return e.Node
		}
	}
	t.Skip("schedule delivers no messages")
	return 0
}
