package plwg

// Ablation benchmark for the Figure 1 policy parameters (DESIGN.md §5):
// it reports the switch count a mild membership drift provokes, so the
// contribution of the paper's choice is directly visible in
// `go test -bench=Ablation`.

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/trace"
)

// BenchmarkPolicyAblation sweeps the Figure 1 hysteresis parameter k_m:
// with k_m = 1 every sub-unity overlap triggers a switch (no
// hysteresis), with the paper's k_m = 4 only a 25% overlap does. The
// metric is the number of switch operations a mild membership drift
// provokes — the paper chose 4 precisely to keep this at zero. The
// benchmark fails if k_m = 1 shows no switch or k_m = 4 shows any, so a
// miscounted event cannot turn it silent.
func BenchmarkPolicyAblation(b *testing.B) {
	for _, km := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("km=%d", km), func(b *testing.B) {
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
					if e.What == trace.LWGSwitch {
						switches++
					}
				}
				if km == 1 && switches == 0 {
					b.Fatal("k_m = 1 provoked no switch: the drift no longer triggers the policy, or switches go uncounted")
				}
				if km == 4 && switches != 0 {
					b.Fatalf("k_m = 4 provoked %v switches, want 0", switches)
				}
			}
			b.ReportMetric(switches, "switch-events")
		})
	}
}
