package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"plwg/internal/metrics"
	"plwg/internal/trace"
)

// ObservabilityRecords measures what the full observability stack — the
// metrics registry plus a ring tracer, both enabled on every simulated
// process — does to the Figure 2 dynamic-lwg throughput point at n = 8,
// and dumps the instrumented run's cluster-wide counter totals.
//
// The simulation runs on virtual time, so the throughput delta captures
// behavioral interference (there must be none: instrumentation only
// observes) while the wall-clock delta, printed but deliberately not
// recorded (it is machine-dependent), shows the real CPU cost. The
// committed overhead_pct record is the regression gate: it must stay
// under the 5% observability budget.
func ObservabilityRecords(w io.Writer, seed int64, d Durations) []Record {
	const n = 8
	mode := DynamicLWG
	fmt.Fprintf(w, "  observability overhead (%s n=%d)...\n", mode, n)

	runtime.GC() // keep prior sweeps' garbage out of the wall-clock compare
	w0 := time.Now()
	plain := RunThroughputWith(mode, n, seed, d, Options{})
	plainWall := time.Since(w0)

	reg := metrics.NewRegistry()
	ring := trace.NewRing(trace.DefaultRingCapacity)
	runtime.GC()
	w1 := time.Now()
	instr := RunThroughputWith(mode, n, seed, d, Options{Metrics: reg, Tracer: ring})
	instrWall := time.Since(w1)

	if !plain.Converged || !instr.Converged {
		fmt.Fprintf(w, "  observability run did not converge; skipping records\n")
		return nil
	}
	overhead := 0.0
	if plain.TotalKBps > 0 {
		overhead = 100 * (plain.TotalKBps - instr.TotalKBps) / plain.TotalKBps
	}
	fmt.Fprintf(w, "  plain %.1f kbps (%v wall), instrumented %.1f kbps (%v wall), overhead %.2f%%\n",
		plain.TotalKBps, plainWall.Round(time.Millisecond),
		instr.TotalKBps, instrWall.Round(time.Millisecond), overhead)

	recs := []Record{
		{"observability", mode.String(), n, "plain_kbps", plain.TotalKBps},
		{"observability", mode.String(), n, "instrumented_kbps", instr.TotalKBps},
		{"observability", mode.String(), n, "overhead_pct", overhead},
		{"observability", mode.String(), n, "trace_events", float64(ring.Total())},
		{"observability", mode.String(), n, "trace_dropped", float64(ring.Dropped())},
	}
	totals := reg.Totals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		recs = append(recs, Record{"registry-totals", mode.String(), n, name, float64(totals[name])})
	}
	return recs
}
