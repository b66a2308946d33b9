package main

import (
	"path/filepath"
	"testing"
)

// Every workload runs for a second, untraced and traced, passes its own
// correctness gate and renders as the driver's result object where it
// is one of the contract's workloads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	contract := make(map[string]bool)
	for _, name := range contractWorkloads {
		contract[name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.name, 1, 1, traced, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			if !contract[w.name] {
				continue
			}
			if _, err := contractLine(res); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive number", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func TestLayerSuiteReportsWhatNoWorkloadDoes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer ceilings")
	}
	layers, err := runLayerSuite()
	if err != nil {
		t.Fatal(err)
	}
	if !layers.Correct {
		t.Fatalf("layer suite: %v", layers.Violations)
	}
	reported := make(map[string]bool)
	for name := range layers.Metrics {
		reported[name] = true
	}
	for _, w := range []string{"rt-paced", "sim-churn"} {
		res, err := run(w, 1, 1, true, filepath.Join(t.TempDir(), "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for name := range res.Metrics {
			reported[name] = true
		}
	}
	for _, d := range perLayer {
		if !reported[d.Name] {
			t.Errorf("per-layer metric %s is reported by nothing", d.Name)
		}
	}
}
