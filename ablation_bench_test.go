package plwg

// Ablation benchmarks for the design choices called out in DESIGN.md §5
// that are real settings (the network model, the delivery order, the
// Figure 1 policy parameters). Each reports the same headline metric as
// the main experiment, so the contribution of the choice is directly
// visible in `go test -bench=Ablation`.

import (
	"testing"
	"time"

	"plwg/internal/bench"
	"plwg/internal/netsim"
	"plwg/internal/vsync"
)

// BenchmarkBusVsPointToPoint ablates the shared-medium assumption: on
// independent point-to-point links the static configuration's
// interference (everybody shares one wire and one stability domain)
// largely disappears, confirming that the Figure 2 latency gap is a
// shared-medium effect — exactly why the paper's testbed (10 Mbps shared
// Ethernet) shows it.
func BenchmarkBusVsPointToPoint(b *testing.B) {
	nets := []struct {
		name string
		p2p  bool
	}{
		{"shared-bus", false},
		{"point-to-point", true},
	}
	for _, nt := range nets {
		for _, mode := range []bench.Mode{bench.StaticLWG, bench.DynamicLWG} {
			b.Run(nt.name+"/"+mode.String(), func(b *testing.B) {
				params := netsim.DefaultParams()
				params.PointToPoint = nt.p2p
				var last bench.LatencyResult
				for i := 0; i < b.N; i++ {
					last = bench.RunLatencyWith(mode, 8, int64(i+1), benchDurations(),
						bench.Options{Net: &params})
					if !last.Converged {
						b.Fatal("run did not converge")
					}
				}
				b.ReportMetric(last.MeanMs, "latency-ms")
			})
		}
	}
}

// BenchmarkOrderingAblation compares FIFO and sequencer-based total-order
// delivery: the token round adds latency and per-message frames, the
// price of a uniform delivery sequence.
func BenchmarkOrderingAblation(b *testing.B) {
	modes := []struct {
		name string
		ord  vsync.OrderingMode
	}{
		{"fifo", vsync.OrderingFIFO},
		{"total-order", vsync.OrderingTotal},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var last bench.LatencyResult
			for i := 0; i < b.N; i++ {
				last = bench.RunLatencyWith(bench.DynamicLWG, 8, int64(i+1), benchDurations(),
					bench.Options{Ordering: m.ord})
				if !last.Converged {
					b.Fatal("run did not converge")
				}
			}
			b.ReportMetric(last.MeanMs, "latency-ms")
		})
	}
}

// BenchmarkPolicyAblation sweeps the Figure 1 hysteresis parameter k_m:
// with k_m = 1 every sub-unity overlap triggers a switch (no
// hysteresis), with the paper's k_m = 4 only a 25% overlap does. The
// metric is the number of switch operations a mild membership drift
// provokes — the paper chose 4 precisely to keep this at zero.
func BenchmarkPolicyAblation(b *testing.B) {
	for _, km := range []int{1, 2, 4} {
		b.Run(kmLabel(km), func(b *testing.B) {
			var switches float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Nodes: 8, NameServers: []int{0}, Seed: int64(i + 1), CollectTrace: true}
				cfg.Service.Policy.KM = km
				cfg.Service.Policy.KC = 4
				cfg.Service.PolicyInterval = time.Hour
				c, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				// A 6-member group and a 2-member subgroup sharing its
				// HWG: 2/6 overlap is a minority for k_m ≥ 3 only.
				for _, p := range []int{1, 2, 3, 4, 5, 6} {
					if _, err := c.Process(p).Join("big"); err != nil {
						b.Fatal(err)
					}
				}
				c.Run(6 * time.Second)
				for _, p := range []int{1, 2} {
					if _, err := c.Process(p).Join("small"); err != nil {
						b.Fatal(err)
					}
				}
				c.Run(4 * time.Second)
				for n := 1; n <= 6; n++ {
					c.Process(n).RunPolicyNow()
				}
				c.Run(4 * time.Second)
				switches = 0
				for _, e := range c.Trace().Events {
					if e.What == "switch" {
						switches++
					}
				}
			}
			b.ReportMetric(switches, "switch-events")
		})
	}
}

func kmLabel(km int) string {
	switch km {
	case 1:
		return "km=1"
	case 2:
		return "km=2"
	default:
		return "km=4"
	}
}
