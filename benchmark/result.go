package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metric is one reported number. N is how many samples stand behind it;
// Q1 and Q3 are their quartiles where the metric is a median of samples.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// Result is the outcome of one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Violations lists what the correctness gate found; Invalid says why
	// the numbers, though correct, should not be trusted.
	Violations []string `json:"violations,omitempty"`
	Invalid    string   `json:"invalid,omitempty"`
	Notes      []string `json:"notes,omitempty"`
}

func newResult(workload string) *Result {
	return &Result{Workload: workload, Correct: true, Metrics: make(map[string]Metric)}
}

func (r *Result) set(name, unit string, v float64, n int64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

func (r *Result) setRange(name, unit string, v float64, n int64, q1, q3 float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n, Q1: q1, Q3: q3}
}

// setQuartiles reports the median of the samples with their quartiles.
func (r *Result) setQuartiles(name, unit string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	r.setRange(name, unit, median(samples), int64(len(samples)),
		quantileOf(samples, 0.25), quantileOf(samples, 0.75))
}

func (r *Result) violate(format string, args ...any) {
	r.Correct = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// metricDef declares one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// absorb adds another result's metrics and findings to r. A metric both
// hold keeps r's value.
func (r *Result) absorb(o *Result) {
	for name, m := range o.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = m
		}
	}
	r.Correct = r.Correct && o.Correct
	r.Attempted, r.Failed = r.Attempted+o.Attempted, r.Failed+o.Failed
	r.Violations = append(r.Violations, o.Violations...)
	r.Notes = append(r.Notes, o.Notes...)
}

// printTable writes one row per metric of the result: the contract's
// metrics in the contract's order, anything else alphabetically after.
func printTable(w io.Writer, r *Result) {
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	state := "correct"
	if !r.Correct {
		state = "INCORRECT"
	}
	if r.Invalid != "" {
		state += ", INVALID: " + r.Invalid
	}
	fmt.Fprintf(w, "== %s: %d attempted, %d failed, %s\n", r.Workload, r.Attempted, r.Failed, state)
	seen := make(map[string]bool)
	var names []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; ok {
			names = append(names, d.Name)
			seen[d.Name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range append(names, rest...) {
		m := r.Metrics[name]
		spread := ""
		if m.Q1 != 0 || m.Q3 != 0 {
			spread = fmt.Sprintf("[%s .. %s]", fmtNum(m.Q1), fmtNum(m.Q3))
		}
		fmt.Fprintf(w, "  %-34s %14s %-8s n=%-9d %s\n", name, fmtNum(m.Value), m.Unit, m.N, spread)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  violation: %s\n", v)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func fmtNum(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	case a < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	}
}
