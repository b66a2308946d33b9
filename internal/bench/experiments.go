package bench

import (
	"fmt"
	"io"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/sim"
	"plwg/internal/workload"
)

// Durations controls experiment length; tests shrink them, the CLI uses
// the defaults.
type Durations struct {
	// SetupMax bounds the convergence wait.
	SetupMax time.Duration
	// Measure is the measurement window for latency/throughput.
	Measure time.Duration
	// RecoveryMax bounds the crash-recovery wait.
	RecoveryMax time.Duration
}

// DefaultDurations returns the durations used by cmd/lwgbench.
func DefaultDurations() Durations {
	return Durations{
		SetupMax:    120 * time.Second,
		Measure:     5 * time.Second,
		RecoveryMax: 30 * time.Second,
	}
}

// Workload parameters of the Figure 2 experiments.
const (
	// MsgSize is the data-transfer payload (bytes).
	MsgSize = 1024
	// PerSetRate is the aggregate offered load per group set
	// (messages/s) in the latency experiment. With both sets active the
	// data alone fills ~54% of the 10 Mbps bus; stability and liveness
	// overhead push the busiest configuration well past 80%, matching
	// the paper's "loaded Ethernet" where the configurations separate.
	PerSetRate = 300.0
	// RecoveryBgRate is the per-set background load during the recovery
	// experiment — moderate, so even the most overhead-heavy
	// configuration stays below bus saturation and the measurement
	// captures recovery, not congestive collapse.
	RecoveryBgRate = 150.0
)

// LatencyResult is one cell of the Figure 2 latency graph.
type LatencyResult struct {
	Converged bool
	MeanMs    float64
	P99Ms     float64
	Samples   int
	HWGs      int
}

// RunLatency measures mean one-way delivery latency under the fixed
// offered load (Figure 2, "latency").
func RunLatency(mode Mode, n int, seed int64, d Durations) LatencyResult {
	h := NewHarness(mode, workload.Fig2Topology(n), seed)
	if !h.Setup(d.SetupMax) {
		return LatencyResult{}
	}
	// Bounded reservoir: long measurement windows record an unbounded
	// number of deliveries, but memory stays at the reservoir capacity
	// (count/mean/min/max stay exact; p99 is estimated from the sample).
	hist := metrics.NewReservoir(8192, seed)
	h.OnDeliver(func(_ int, member, src ids.ProcessID, id uint64, _ int) {
		if member == src {
			return
		}
		if t0, ok := h.SentAt(id); ok {
			hist.Add(h.S.Now().Sub(t0))
		}
	})
	// Each group sends at PerSetRate/n msg/s (Poisson) so the per-set
	// aggregate offered load is constant across n.
	interval := time.Duration(float64(n) / PerSetRate * float64(time.Second))
	for gi, g := range h.Topo.Groups {
		gi, g := gi, g
		h.Poisson(interval, func() { h.Send(gi, g.Sender(), MsgSize) })
	}
	h.S.RunFor(d.Measure)
	h.StopTraffic()
	h.S.RunFor(200 * time.Millisecond) // drain in-flight deliveries
	return LatencyResult{
		Converged: true,
		MeanMs:    float64(hist.Mean()) / float64(time.Millisecond),
		P99Ms:     float64(hist.Percentile(99)) / float64(time.Millisecond),
		Samples:   int(hist.Count()),
		HWGs:      h.HWGCount(),
	}
}

// ThroughputResult is one cell of the Figure 2 throughput graph.
type ThroughputResult struct {
	Converged bool
	// TotalKBps is the aggregate payload delivered to remote receivers
	// per second.
	TotalKBps float64
	// MsgsPerSec is the aggregate send completion rate.
	MsgsPerSec float64
}

// RunThroughput measures saturation throughput with one closed-loop
// sender per group (a sender posts the next message when its previous
// one completes its round trip through the shared bus).
func RunThroughput(mode Mode, n int, seed int64, d Durations) ThroughputResult {
	return RunThroughputWith(mode, n, seed, d, Options{})
}

// RunThroughputWith is RunThroughput with instrumentation.
func RunThroughputWith(mode Mode, n int, seed int64, d Durations, opts Options) ThroughputResult {
	h := NewHarnessWith(mode, workload.Fig2Topology(n), seed, opts)
	if !h.Setup(d.SetupMax) {
		return ThroughputResult{}
	}
	outstanding := make(map[int]uint64, len(h.Topo.Groups))
	var bytesDelivered, completions int64
	var measuring bool
	h.OnDeliver(func(gi int, member, src ids.ProcessID, id uint64, size int) {
		g := h.Topo.Groups[gi]
		if member != src {
			if measuring {
				bytesDelivered += int64(size)
			}
			return
		}
		// Self-delivery closes the loop: post the next message.
		if src == g.Sender() && outstanding[gi] == id {
			if measuring {
				completions++
			}
			outstanding[gi] = h.Send(gi, g.Sender(), MsgSize)
		}
	})
	for gi, g := range h.Topo.Groups {
		outstanding[gi] = h.Send(gi, g.Sender(), MsgSize)
	}
	// Warm up, then measure.
	h.S.RunFor(500 * time.Millisecond)
	measuring = true
	h.S.RunFor(d.Measure)
	measuring = false
	secs := d.Measure.Seconds()
	return ThroughputResult{
		Converged:  true,
		TotalKBps:  float64(bytesDelivered) / 1024 / secs,
		MsgsPerSec: float64(completions) / secs,
	}
}

// RecoveryResult is one cell of the Figure 2 recovery graph.
type RecoveryResult struct {
	Converged bool
	// MaxMs is the time until the last affected group reinstalled a view
	// excluding the crashed member.
	MaxMs float64
	// MeanMs averages the per-group recovery times.
	MeanMs float64
	// UnrelatedProbeMaxMs is the worst delivery latency observed by a
	// group that did NOT contain the crashed process during the
	// recovery — the paper's interference effect: a static mapping
	// stops unrelated groups while the shared HWG flushes.
	UnrelatedProbeMaxMs float64
}

// RunRecovery crashes one member of set A and measures how long every
// affected group needs to reinstall its view (Figure 2, "recovery
// time"), while probing an unaffected set-B group for disruption.
func RunRecovery(mode Mode, n int, seed int64, d Durations) RecoveryResult {
	h := NewHarness(mode, workload.Fig2Topology(n), seed)
	if !h.Setup(d.SetupMax) {
		return RecoveryResult{}
	}
	const victim = ids.ProcessID(3) // a member of every set-A group

	// Probe traffic on the first set-B group (unaffected by the crash).
	var probeMax time.Duration
	probeGi := -1
	for gi, g := range h.Topo.Groups {
		if g.Set == 1 {
			probeGi = gi
			break
		}
	}
	h.OnDeliver(func(gi int, member, src ids.ProcessID, id uint64, _ int) {
		if gi != probeGi || member == src {
			return
		}
		if t0, ok := h.SentAt(id); ok {
			if lat := h.S.Now().Sub(t0); lat > probeMax {
				probeMax = lat
			}
		}
	})
	if probeGi >= 0 {
		// Fine-grained probes: the disruption window (unrelated groups
		// stopped while the shared HWG flushes) lasts only a few
		// milliseconds in the simulator, so probe densely.
		g := h.Topo.Groups[probeGi]
		h.Every(5*time.Millisecond, func() { h.Send(probeGi, g.Sender(), 64) })
	}

	// Background load (as in the paper's loaded network): every group
	// keeps sending, so the n concurrent recovery protocols of the
	// no-LWG configuration contend for the bus and the flush has real
	// unstable traffic to reconcile.
	interval := time.Duration(float64(n) / RecoveryBgRate * float64(time.Second))
	for gi, g := range h.Topo.Groups {
		if gi == probeGi {
			continue
		}
		gi, g := gi, g
		h.Poisson(interval, func() {
			if !h.NW.Crashed(g.Sender()) {
				h.Send(gi, g.Sender(), MsgSize)
			}
		})
	}
	h.S.RunFor(300 * time.Millisecond) // let the load reach steady state

	crashAt := h.S.Now()
	h.NW.Crash(victim)

	affected := make(map[int]ids.Members) // group index -> surviving members
	for gi, g := range h.Topo.Groups {
		if g.Members.Contains(victim) {
			affected[gi] = g.Members.Without(victim)
		}
	}
	recoveredAt := make(map[int]sim.Time)
	deadline := crashAt.Add(d.RecoveryMax)
	for len(recoveredAt) < len(affected) && h.S.Now() < deadline {
		h.S.RunFor(5 * time.Millisecond)
		for gi, want := range affected {
			if _, done := recoveredAt[gi]; done {
				continue
			}
			ok := true
			for _, p := range want {
				v, has := h.GroupView(gi, p)
				if !has || !v.Members.Equal(want) {
					ok = false
					break
				}
			}
			if ok {
				recoveredAt[gi] = h.S.Now()
			}
		}
	}
	h.StopTraffic()
	// Drain probe messages that were buffered during the flush window;
	// their (large) delivery latencies are the interference signal.
	h.S.RunFor(300 * time.Millisecond)
	if len(recoveredAt) < len(affected) {
		return RecoveryResult{}
	}
	var maxD, sumD time.Duration
	for _, at := range recoveredAt {
		dur := at.Sub(crashAt)
		sumD += dur
		if dur > maxD {
			maxD = dur
		}
	}
	return RecoveryResult{
		Converged:           true,
		MaxMs:               float64(maxD) / float64(time.Millisecond),
		MeanMs:              float64(sumD) / float64(len(recoveredAt)) / float64(time.Millisecond),
		UnrelatedProbeMaxMs: float64(probeMax) / float64(time.Millisecond),
	}
}

// DefaultNs is the paper-style sweep of groups-per-set.
var DefaultNs = []int{1, 2, 4, 8, 16, 32}

// Figure2Latency renders the latency series for every configuration.
func Figure2Latency(w io.Writer, ns []int, seed int64, d Durations) {
	fmt.Fprintf(w, "Figure 2 — data transfer latency (mean one-way ms; payload %dB, %v msg/s per set)\n",
		MsgSize, PerSetRate)
	fmt.Fprintf(w, "%6s %12s %12s %12s\n", "n", "no-lwg", "static-lwg", "dynamic-lwg")
	for _, n := range ns {
		fmt.Fprintf(w, "%6d", n)
		for _, m := range Modes {
			r := RunLatency(m, n, seed, d)
			if !r.Converged {
				fmt.Fprintf(w, " %12s", "n/a")
				continue
			}
			fmt.Fprintf(w, " %12.2f", r.MeanMs)
		}
		fmt.Fprintln(w)
	}
}

// Figure2Throughput renders the throughput series for every
// configuration.
func Figure2Throughput(w io.Writer, ns []int, seed int64, d Durations) {
	fmt.Fprintf(w, "Figure 2 — throughput (aggregate delivered payload, KB/s; closed-loop senders)\n")
	fmt.Fprintf(w, "%6s %12s %12s %12s\n", "n", "no-lwg", "static-lwg", "dynamic-lwg")
	for _, n := range ns {
		fmt.Fprintf(w, "%6d", n)
		for _, m := range Modes {
			r := RunThroughput(m, n, seed, d)
			if !r.Converged {
				fmt.Fprintf(w, " %12s", "n/a")
				continue
			}
			fmt.Fprintf(w, " %12.0f", r.TotalKBps)
		}
		fmt.Fprintln(w)
	}
}

// Figure2Recovery renders the recovery-time series for every
// configuration, plus the unrelated-group disruption column pair.
func Figure2Recovery(w io.Writer, ns []int, seed int64, d Durations) {
	fmt.Fprintf(w, "Figure 2 — recovery time after a member crash (ms until last affected group reinstalls)\n")
	fmt.Fprintf(w, "%6s %12s %12s %12s   | unrelated-group probe max (ms)\n",
		"n", "no-lwg", "static-lwg", "dynamic-lwg")
	for _, n := range ns {
		fmt.Fprintf(w, "%6d", n)
		var probes [3]float64
		for i, m := range Modes {
			r := RunRecovery(m, n, seed, d)
			if !r.Converged {
				fmt.Fprintf(w, " %12s", "n/a")
				continue
			}
			fmt.Fprintf(w, " %12.0f", r.MaxMs)
			probes[i] = r.UnrelatedProbeMaxMs
		}
		fmt.Fprintf(w, "   | %8.1f %8.1f %8.1f\n", probes[0], probes[1], probes[2])
	}
}
