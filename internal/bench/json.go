package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one machine-readable datum: an (experiment, mode, n,
// metric) cell of a virtual-clock sweep. BENCH_plwg.json is a flat list
// of these; every value is exact per seed, so a value that differs from
// the committed file is a behaviour change.
type Record struct {
	Experiment string  `json:"experiment"`
	Mode       string  `json:"mode"`
	N          int     `json:"n,omitempty"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// Report is the top-level BENCH_plwg.json document.
type Report struct {
	GeneratedBy string   `json:"generated_by"`
	Seed        int64    `json:"seed"`
	MeasureSecs float64  `json:"measure_secs"`
	Records     []Record `json:"records"`
}

// GeneratedBy is the report's provenance line. It is a constant, not the
// command line of the run, so that regenerating the committed file at
// any path reproduces it byte for byte.
const GeneratedBy = "go run ./cmd/lwgbench -json BENCH_plwg.json"

// ExactReport runs every experiment whose records are exact on the
// virtual clock — the three Figure 2 sweeps over ns, fig-scale over
// groups, and the instrumented n = 8 run with its counter totals — and
// returns them in the order BENCH_plwg.json lists them.
func ExactReport(w io.Writer, ns, groups []int, seed int64, d Durations) Report {
	recs := Figure2Records(w, ns, seed, d)
	recs = append(recs, FigScaleRecords(w, groups, seed, d)...)
	recs = append(recs, ObservabilityRecords(w, seed, d)...)
	return Report{
		GeneratedBy: GeneratedBy,
		Seed:        seed,
		MeasureSecs: d.Measure.Seconds(),
		Records:     recs,
	}
}

// Figure2Records runs the three Figure 2 experiments over the sweep and
// collects every metric as a flat record list.
func Figure2Records(w io.Writer, ns []int, seed int64, d Durations) []Record {
	var recs []Record
	for _, n := range ns {
		for _, m := range Modes {
			fmt.Fprintf(w, "  fig2 n=%d %s...\n", n, m)
			if r := RunLatency(m, n, seed, d); r.Converged {
				recs = append(recs,
					Record{"fig2-latency", m.String(), n, "mean_ms", r.MeanMs},
					Record{"fig2-latency", m.String(), n, "p99_ms", r.P99Ms})
			}
			if r := RunThroughput(m, n, seed, d); r.Converged {
				recs = append(recs,
					Record{"fig2-throughput", m.String(), n, "total_kbps", r.TotalKBps},
					Record{"fig2-throughput", m.String(), n, "msgs_per_sec", r.MsgsPerSec})
			}
			if r := RunRecovery(m, n, seed, d); r.Converged {
				recs = append(recs,
					Record{"fig2-recovery", m.String(), n, "max_ms", r.MaxMs},
					Record{"fig2-recovery", m.String(), n, "unrelated_probe_max_ms", r.UnrelatedProbeMaxMs})
			}
		}
	}
	return recs
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
