package plwg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"plwg/internal/bench"
)

// experimentTables are EXPERIMENTS.md's tables that are rendered from
// the committed records, so the document cannot drift from what the
// code measures.
var experimentTables = []struct {
	id     string
	render func(bench.Report) string
}{
	// Figure 2: the cells are (metric, format) pairs per mode, and a "—"
	// column separates the two metric groups of a row.
	{"E4a", func(rep bench.Report) string {
		return renderFig2Table(rep, "fig2-latency",
			"| n  | no-lwg mean | static mean | dynamic mean | — | no-lwg p99 | static p99 | dynamic p99 |",
			[][2]string{{"mean_ms", "%.2f"}, {"p99_ms", "%.2f"}})
	}},
	{"E4b", func(rep bench.Report) string {
		return renderFig2Table(rep, "fig2-throughput",
			"| n  | no-lwg KiB/s | static KiB/s | dynamic KiB/s | — | no-lwg msgs/s | static msgs/s | dynamic msgs/s |",
			[][2]string{{"total_kbps", "%.0f"}, {"msgs_per_sec", "%.0f"}})
	}},
	{"E4c", func(rep bench.Report) string {
		return renderFig2Table(rep, "fig2-recovery",
			"| n  | no-lwg | static | dynamic | — | probe no-lwg | probe static | probe dynamic |",
			[][2]string{{"max_ms", "%.0f"}, {"unrelated_probe_max_ms", "%.1f"}})
	}},
	{"fig-scale", renderScaleTable},
}

// renderScaleTable renders the fig-scale table: one row per group
// count, the steady-state sync cost and the heal time.
func renderScaleTable(rep bench.Report) string {
	cols := []struct{ metric, format string }{
		{"sync_bytes_per_round", " %.1f |"},
		{"sync_frames_per_round", " %.2f |"},
		{"heal_ms", " %.0f ms |"},
	}
	vals := make(map[string]float64)
	var ns []int
	for _, r := range rep.Records {
		if r.Experiment != "fig-scale" {
			continue
		}
		if len(ns) == 0 || ns[len(ns)-1] != r.N {
			ns = append(ns, r.N)
		}
		vals[fmt.Sprint(r.N, r.Metric)] = r.Value
	}
	var b strings.Builder
	b.WriteString("| groups | B/round | frames/round | heal |\n|---|---|---|---|\n")
	for _, n := range ns {
		fmt.Fprintf(&b, "| %d |", n)
		for _, c := range cols {
			if v, ok := vals[fmt.Sprint(n, c.metric)]; ok {
				fmt.Fprintf(&b, c.format, v)
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderFig2Table renders one table from the report; a cell without a
// record (a run that did not converge) prints "—".
func renderFig2Table(rep bench.Report, experiment, header string, metrics [][2]string) string {
	type key struct {
		mode, metric string
		n            int
	}
	vals := make(map[key]float64)
	var ns []int
	for _, r := range rep.Records {
		if r.Experiment != experiment {
			continue
		}
		if len(ns) == 0 || ns[len(ns)-1] != r.N {
			ns = append(ns, r.N)
		}
		vals[key{r.Mode, r.Metric, r.N}] = r.Value
	}
	var b strings.Builder
	b.WriteString(header + "\n")
	b.WriteString(strings.Repeat("|---", strings.Count(header, "|")-1) + "|\n")
	for _, n := range ns {
		fmt.Fprintf(&b, "| %-2d |", n)
		for g, m := range metrics {
			if g > 0 {
				b.WriteString(" — |")
			}
			for _, mode := range bench.Modes {
				if v, ok := vals[key{mode.String(), m[0], n}]; ok {
					fmt.Fprintf(&b, " "+m[1]+" |", v)
				} else {
					b.WriteString(" — |")
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestExperimentsTablesMatchRecords fails when a table in EXPERIMENTS.md
// differs from the one rendered from BENCH_plwg.json. Each table sits
// between "<!-- <id>: generated ..." and "<!-- /<id> -->"; -update
// rewrites them in place.
func TestExperimentsTablesMatchRecords(t *testing.T) {
	raw, err := os.ReadFile("BENCH_plwg.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	const path = "EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := doc
	for _, tb := range experimentTables {
		begin := []byte("<!-- " + tb.id + ": generated from BENCH_plwg.json")
		end := []byte("<!-- /" + tb.id + " -->")
		i := bytes.Index(out, begin)
		j := bytes.Index(out, end)
		if i < 0 || j < i {
			t.Fatalf("%s: no %q … %q block", path, begin, end)
		}
		i += bytes.IndexByte(out[i:], '\n') + 1
		want := tb.render(rep)
		if got := string(out[i:j]); got != want {
			if !*update {
				t.Errorf("%s's %s table differs from the records in BENCH_plwg.json "+
					"(run with -update if the records moved on purpose); want:\n%s", path, tb.id, want)
			}
			out = append(out[:i:i], append([]byte(want), out[j:]...)...)
		}
	}
	if *update && !bytes.Equal(out, doc) {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
