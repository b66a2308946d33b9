package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Report is what a whole-suite run prints as its last line, and what
// --compare reads: a file holds one report per line, one line per run.
type Report struct {
	Host    Host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Claim   *string   `json:"claim"` // always null: the benchmark claims nothing
	Results []*Result `json:"results"`
}

func readReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 || sc.Bytes()[0] != '{' {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(r.Results) > 0 {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// series collects, per workload and metric, the values of every run.
func series(reports []Report) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, rep := range reports {
		for _, r := range rep.Results {
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs((quantileOf(xs, 0.75) - quantileOf(xs, 0.25)) / m)
}

// verdict classifies the step from a to b for one metric.
func verdict(a, b []float64, d metricDef) string {
	exact := true
	for _, v := range append(append([]float64(nil), a...), b...) {
		if v != a[0] {
			exact = false
		}
	}
	if exact {
		return "exact"
	}
	if d.Bound == 0 {
		return "no bound"
	}
	if math.Max(spread(a), spread(b)) > d.Bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regression"
	}
	return "within bound"
}

// compare prints, for every workload and metric the two sets share, the
// medians, the spreads and the verdict, and reports whether any metric
// regressed.
func compare(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	ra, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	defs := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	defs["enum_states_per_s"] = metricDef{Name: "enum_states_per_s", Unit: "states/s", Better: "higher", Bound: 0.05}
	sa, sb := series(ra), series(rb)
	fmt.Fprintf(w, "a: %d runs of %s   b: %d runs of %s\n", len(ra), ra[0].Host.Commit, len(rb), rb[0].Host.Commit)
	var results []string // workloads, and "layers" of a traced report
	for wl := range sa {
		results = append(results, wl)
	}
	sort.Strings(results)
	for _, wl := range results {
		var names []string
		for name := range sa[wl] {
			if _, ok := sb[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s\n", wl)
		for _, name := range names {
			a, b := sa[wl][name], sb[wl][name]
			v := verdict(a, b, defs[name])
			regressed = regressed || v == "regression"
			fmt.Fprintf(w, "  %-34s %12s -> %-12s %-8s spread %5.1f%% / %5.1f%%  bound %4.0f%%  %s\n",
				name, fmtNum(median(a)), fmtNum(median(b)), defs[name].Unit,
				100*spread(a), 100*spread(b), 100*defs[name].Bound, v)
		}
	}
	return regressed, nil
}
