package bench

import (
	"testing"
	"time"

	"plwg/internal/metrics"
	"plwg/internal/trace"
)

// BenchmarkSendPath drives the Figure 2 closed-loop throughput workload
// through the dynamic configuration, bare and with the full
// observability stack (registry + ring tracer) enabled. msgs/s must be
// identical (instrumentation only observes); allocs are reported because
// the simulated hot path should not regress allocation-wise either —
// compare "batched" against "instrumented" for the observability
// overhead.
func BenchmarkSendPath(b *testing.B) {
	d := Durations{SetupMax: 120 * time.Second, Measure: 2 * time.Second}
	for _, cfg := range []struct {
		name       string
		instrument bool
	}{
		{"batched", false},
		{"instrumented", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var last ThroughputResult
			for i := 0; i < b.N; i++ {
				var opts Options
				if cfg.instrument {
					opts.Metrics = metrics.NewRegistry()
					opts.Tracer = trace.NewRing(trace.DefaultRingCapacity)
				}
				last = RunThroughputWith(DynamicLWG, 8, int64(i+1), d, opts)
				if !last.Converged {
					b.Fatal("run did not converge")
				}
			}
			b.ReportMetric(last.MsgsPerSec, "msgs/s")
			b.ReportMetric(last.TotalKBps, "KB/s")
		})
	}
}

// TestInstrumentationPreservesResults pins the observation-only
// contract: the registry and tracer must not perturb the protocol. Two
// identical runs — one bare, one fully instrumented — must produce
// byte-identical throughput results on the deterministic simulator.
func TestInstrumentationPreservesResults(t *testing.T) {
	d := Durations{SetupMax: 120 * time.Second, Measure: time.Second}
	plain := RunThroughputWith(DynamicLWG, 4, 1, d, Options{})
	reg := metrics.NewRegistry()
	instr := RunThroughputWith(DynamicLWG, 4, 1, d, Options{
		Metrics: reg,
		Tracer:  trace.NewRing(trace.DefaultRingCapacity),
	})
	if !plain.Converged || !instr.Converged {
		t.Fatal("runs did not converge")
	}
	if plain != instr {
		t.Fatalf("instrumentation changed the run:\nplain %+v\ninstr %+v", plain, instr)
	}
	// And the run must actually have been observed.
	totals := reg.Totals()
	for _, name := range []string{"lwg_sends_total", "lwg_deliveries_total", "hwg_sends_total"} {
		if totals[name] == 0 {
			t.Errorf("instrumented run recorded no %s", name)
		}
	}
}
