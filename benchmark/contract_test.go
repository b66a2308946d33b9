package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// BENCHMARK.json and the tables in contract.go say the same.
func TestContractFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", file.EndToEnd, endToEnd)
	}
	want := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		d.Bound = 0 // per-layer metrics have no bound in the contract
		want[i] = d
	}
	if !reflect.DeepEqual(file.PerLayer, want) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	why := make(map[string]string)
	for _, w := range workloads {
		why[w.name] = w.why
	}
	if len(file.Workloads) != len(contractWorkloads) {
		t.Fatalf("%d workloads in the file, %d in contractWorkloads", len(file.Workloads), len(contractWorkloads))
	}
	for i, w := range file.Workloads {
		if w.Name != contractWorkloads[i] || w.Why != why[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d: %q %q", i, w.Name, w.Why)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(hist)
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %.0f, want %.0f", q, got, want)
		}
	}
	if got := h.above(0.99); got != 1000 {
		t.Errorf("above(0.99) = %d", got)
	}
	// As Python's statistics.quantiles(n=4) on 1..10.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quantileOf(xs, 0.25), quantileOf(xs, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		a, b []float64
		d    metricDef
		want string
	}{
		{[]float64{5, 5, 5}, []float64{5, 5}, lower, "exact"},
		{steady, []float64{104, 105, 103, 104, 104}, lower, "within bound"},
		{steady, []float64{115, 116, 114, 115, 115}, lower, "regression"},
		{steady, []float64{115, 116, 114, 115, 115}, higher, "within bound"},
		{steady, []float64{85, 86, 84, 85, 85}, higher, "regression"},
		{steady, []float64{80, 120, 100, 140, 60}, lower, "unresolved"},
		{steady, []float64{150, 150, 150}, metricDef{Better: "lower"}, "no bound"},
	} {
		if got := verdict(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("verdict(%v, %v, %+v) = %q, want %q", tc.a, tc.b, tc.d, got, tc.want)
		}
	}
}

func TestUndisturbedKeepsTheQuietOrTheQuietestThird(t *testing.T) {
	sec := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Second
		}
		return out
	}
	ms := time.Millisecond
	// Two stolen seconds of six: they go, the quiet ones stay.
	keep, limit := undisturbed([]time.Duration{0, 300 * ms, 0, 10 * ms, 400 * ms, 0}, sec(6))
	if want := []bool{true, false, true, true, false, true}; !reflect.DeepEqual(keep, want) || limit != quietShare {
		t.Errorf("keep %v limit %v", keep, limit)
	}
	// Steal throughout: the third stolen least from stays.
	keep, limit = undisturbed([]time.Duration{900 * ms, 300 * ms, 500 * ms, 200 * ms, 800 * ms, 700 * ms}, sec(6))
	if want := []bool{false, true, false, true, false, false}; !reflect.DeepEqual(keep, want) || limit <= quietShare {
		t.Errorf("keep %v limit %v", keep, limit)
	}
}
