package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Equal seeds must give byte-identical inputs: the arrival schedule and
// the payload bytes of the rt generators.
func TestSeedFixesGeneratorInputs(t *testing.T) {
	gen := func(seed int64) ([]int64, []byte) {
		rng := rand.New(rand.NewSource(seed))
		body := payloadBody(rng, 1024)
		return poissonSchedule(rng, 2000, 2*time.Second), body
	}
	s1, b1 := gen(7)
	s2, b2 := gen(7)
	if !reflect.DeepEqual(s1, s2) || !bytes.Equal(b1, b2) {
		t.Fatal("equal seeds gave different schedules or payloads")
	}
	s3, b3 := gen(8)
	if reflect.DeepEqual(s1, s3) || bytes.Equal(b1, b3) {
		t.Fatal("different seeds gave the same schedule or payload")
	}
	if n := len(s1); n < 3600 || n > 4400 {
		t.Fatalf("2 s at 2000/s gave %d arrivals", n)
	}
}

// The virtual-time results of sim-churn depend on the seed alone.
func TestSimChurnVirtualTimeIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulated cycles")
	}
	exact := []string{
		"oneway_p50_ms", "oneway_p99_ms", "sim.join_p50_ms", "sim.split_converge_ms",
		"sim.heal_converge_ms", "sim.crash_recover_ms", "sim.bystander_p99_ms", "sim.bus_frames_per_msg",
	}
	a, b := runSimChurn(3, 1, false), runSimChurn(3, 1, false)
	for _, r := range []*Result{a, b} {
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("sim-churn: correct=%v failed=%d: %v", r.Correct, r.Failed, r.Violations)
		}
	}
	for _, name := range exact {
		ma, ok := a.Metrics[name]
		if !ok {
			t.Fatalf("%s not reported", name)
		}
		if mb := b.Metrics[name]; ma.Value != mb.Value {
			t.Errorf("%s: %v then %v with the same seed", name, ma.Value, mb.Value)
		}
	}
	if a.Attempted != b.Attempted {
		t.Errorf("attempted %d then %d", a.Attempted, b.Attempted)
	}
}
