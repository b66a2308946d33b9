package bench

import (
	"strings"
	"testing"
	"time"
)

func scaleTestDurations() Durations {
	return Durations{
		SetupMax:    30 * time.Second,
		Measure:     3 * time.Second,
		RecoveryMax: 30 * time.Second,
	}
}

// TestRunScaleSteadyCostFlat is the property fig-scale exists to show:
// quiescent anti-entropy costs a few bytes per round whatever the size of
// the database, and a heal still converges.
func TestRunScaleSteadyCostFlat(t *testing.T) {
	d := scaleTestDurations()
	small := RunScale(16, 1, d)
	large := RunScale(512, 1, d)
	if !small.Converged || !large.Converged {
		t.Fatalf("did not converge: 16 groups %+v, 512 groups %+v", small, large)
	}
	if small.SyncBytesPerRound <= 0 {
		t.Fatalf("missing traffic accounting: %+v", small)
	}
	if large.SyncBytesPerRound > 2*small.SyncBytesPerRound {
		t.Fatalf("steady-state sync grew with the database: %.1f B/round at 16 groups, %.1f at 512",
			small.SyncBytesPerRound, large.SyncBytesPerRound)
	}
	if large.MergeEntriesPerRound != 0 {
		t.Fatalf("quiescent replicas merged %.2f entries per round", large.MergeEntriesPerRound)
	}
}

func TestRunScaleDeterministic(t *testing.T) {
	d := scaleTestDurations()
	a := RunScale(48, 7, d)
	b := RunScale(48, 7, d)
	// Wall-clock differs run to run; the modeled metrics must not.
	a.SteadyWallMs, b.SteadyWallMs = 0, 0
	if a != b {
		t.Fatalf("fig-scale not deterministic:\n a: %+v\n b: %+v", a, b)
	}
}

func TestFigScaleRenders(t *testing.T) {
	var b strings.Builder
	FigScale(&b, []int{16}, 1, scaleTestDurations())
	out := b.String()
	if !strings.Contains(out, "fig-scale") || !strings.Contains(out, "16") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFigScaleRecords(t *testing.T) {
	var b strings.Builder
	recs := FigScaleRecords(&b, []int{16}, 1, scaleTestDurations())
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	seen := make(map[string]bool)
	for _, r := range recs {
		if r.Experiment != "fig-scale" || r.N != 16 {
			t.Fatalf("bad record %+v", r)
		}
		seen[r.Mode+"/"+r.Metric] = true
	}
	for _, want := range []string{
		"digest-delta/sync_bytes_per_round",
		"digest-delta/heal_ms",
	} {
		if !seen[want] {
			t.Fatalf("missing record %s in %v", want, recs)
		}
	}
}
