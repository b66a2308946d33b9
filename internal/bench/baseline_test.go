package bench

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// exactExperiments are the experiments BENCH_plwg.json may hold: the ones
// that run on the virtual clock and are bit-reproducible per seed.
var exactExperiments = map[string]bool{
	"fig2-latency":    true,
	"fig2-throughput": true,
	"fig2-recovery":   true,
	"fig-scale":       true,
	"observability":   true,
	"registry-totals": true,
}

type recordKey struct {
	experiment, mode string
	n                int
	metric           string
}

func keyOf(r Record) recordKey { return recordKey{r.Experiment, r.Mode, r.N, r.Metric} }

// TestCommittedBaselineExact is the machine behind "a virtual-time record
// that changes is a behaviour change": it re-runs the n = 8 / 64-group
// slice of the committed report and requires every value bit for bit. CI
// regenerates the whole file (`lwgbench -json` + cmp); this is the slice
// that fits in tier-1. When it fails on purpose, regenerate the file and
// explain the moved records in CHANGES.md.
func TestCommittedBaselineExact(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_plwg.json")
	if err != nil {
		t.Fatal(err)
	}
	var file Report
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("BENCH_plwg.json: %v", err)
	}
	if file.GeneratedBy != GeneratedBy {
		t.Errorf("generated_by = %q, want the constant %q", file.GeneratedBy, GeneratedBy)
	}

	const sliceN, sliceGroups = 8, 64
	committed := make(map[recordKey]float64, len(file.Records))
	inSlice := 0
	for _, r := range file.Records {
		if !exactExperiments[r.Experiment] || r.Metric == "steady_wall_ms" {
			t.Errorf("record %+v is not exact on the virtual clock; wall-clock numbers belong in benchmark/", r)
		}
		if _, dup := committed[keyOf(r)]; dup {
			t.Errorf("duplicate record key %+v", keyOf(r))
		}
		committed[keyOf(r)] = r.Value
		if r.Experiment == "fig-scale" && r.N == sliceGroups ||
			r.Experiment != "fig-scale" && r.N == sliceN {
			inSlice++
		}
	}

	d := DefaultDurations()
	d.Measure = time.Duration(file.MeasureSecs * float64(time.Second))
	got := ExactReport(io.Discard, []int{sliceN}, []int{sliceGroups}, file.Seed, d).Records
	for _, r := range got {
		want, ok := committed[keyOf(r)]
		switch {
		case !ok:
			t.Errorf("re-run produced %+v, which BENCH_plwg.json does not hold", r)
		case want != r.Value:
			t.Errorf("%+v: committed %v, re-run %v", keyOf(r), want, r.Value)
		}
	}
	if len(got) != inSlice {
		t.Errorf("re-run produced %d records, BENCH_plwg.json holds %d for n=%d / %d groups",
			len(got), inSlice, sliceN, sliceGroups)
	}
}
