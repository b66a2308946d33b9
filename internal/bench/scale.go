package bench

import (
	"fmt"
	"io"
	"time"

	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// The fig-scale experiment measures how the naming service's
// anti-entropy scales with the number of light-weight groups — the
// regime the LWG idea exists for (thousands of cheap groups amortized
// over few heavy-weight groups). It runs a fixed four-server replica set
// carrying a sweep of LWG counts and compares the legacy full-database
// push-pull against the digest/delta protocol on three axes: steady-state
// sync bytes per round, reconcile work per round, and post-heal
// convergence time.
//
// Unlike the Figure 2 experiments the servers carry the database alone
// (no core endpoints): at 4096 groups the interesting cost IS the
// reconciliation traffic, and the paper's 10 Mbps bus would saturate on
// full-push payloads alone, so the sweep models a 100 Mbps switched LAN.

// ScaleServers is the fixed replica-set size of the fig-scale sweep.
const ScaleServers = 4

// scaleNetParams returns the fig-scale network model: a 100 Mbps LAN
// (the paper's 10 Mbps shared Ethernet cannot even carry the full-push
// baseline at thousands of groups).
func scaleNetParams() netsim.Params {
	p := netsim.DefaultParams()
	p.BandwidthBps = 100e6
	return p
}

// ScaleResult is one cell of the fig-scale sweep.
type ScaleResult struct {
	Converged bool
	Groups    int
	// SetupMs is the virtual time until the seeded database reached all
	// replicas.
	SetupMs float64
	// SyncBytesPerRound / SyncFramesPerRound are modeled anti-entropy
	// traffic (frame overhead included) per sync-timer round in the
	// steady (quiescent) state.
	SyncBytesPerRound  float64
	SyncFramesPerRound float64
	// MergeEntriesPerRound / ConflictChecksPerRound count reconcile work
	// in the steady state (deterministic CPU proxies).
	MergeEntriesPerRound   float64
	ConflictChecksPerRound float64
	// SteadyWallMs is the host wall-clock cost of simulating the steady
	// window (machine-dependent; a coarse reconcile-CPU indicator).
	SteadyWallMs float64
	// HealMs is the virtual time from partition heal to full convergence
	// of all replicas.
	HealMs float64
}

// scaleWorld is the four-server fixture of the sweep.
type scaleWorld struct {
	s       *sim.Sim
	nw      *netsim.Network
	servers []*naming.Server
}

func newScaleWorld(fullPush bool, seed int64) *scaleWorld {
	s := sim.New(seed)
	nw := netsim.New(s, scaleNetParams())
	w := &scaleWorld{s: s, nw: nw}
	pids := make([]ids.ProcessID, ScaleServers)
	for i := range pids {
		pids[i] = ids.ProcessID(i)
	}
	cfg := naming.Config{MappingTTL: -1, FullPush: fullPush}
	for _, pid := range pids {
		srv := naming.NewServer(naming.ServerParams{
			Net: nw, PID: pid, Peers: pids, Config: cfg,
		})
		mux := netsim.NewMux()
		mux.Handle(naming.ServerPrefix, srv.HandleMessage)
		nw.AddNode(pid, mux.Handler())
		srv.Start()
		w.servers = append(w.servers, srv)
	}
	return w
}

// scaleLWG names the i-th group of the sweep.
func scaleLWG(i int) ids.LWGID { return ids.LWGID(fmt.Sprintf("lwg-%04d", i)) }

// converged reports whether every replica stores the same database.
func (w *scaleWorld) converged() bool {
	h := w.servers[0].DB().Hash()
	n := len(w.servers[0].DB().LWGs())
	for _, srv := range w.servers[1:] {
		if srv.DB().Hash() != h || len(srv.DB().LWGs()) != n {
			return false
		}
	}
	return true
}

// runUntilConverged polls convergence and returns the elapsed virtual
// time, or false after max.
func (w *scaleWorld) runUntilConverged(max time.Duration) (time.Duration, bool) {
	start := w.s.Now()
	deadline := start.Add(max)
	for !w.converged() {
		if w.s.Now() >= deadline {
			return w.s.Now().Sub(start), false
		}
		w.s.RunFor(100 * time.Millisecond)
	}
	return w.s.Now().Sub(start), true
}

// syncTraffic sums the anti-entropy bytes and frames of a stats window.
func syncTraffic(st netsim.Stats) (bytes, frames int64) {
	for _, kind := range []string{"naming-sync", "naming-digest", "naming-delta"} {
		bytes += st.BytesByKind[kind]
		frames += st.ByKind[kind]
	}
	return bytes, frames
}

// RunScale measures one (protocol, group-count) cell: seed the database,
// converge, measure a quiescent steady-state window, then partition the
// replica set, diverge both sides, heal, and time re-convergence.
// Durations map as SetupMax → initial convergence bound, Measure →
// steady-state window, RecoveryMax → post-heal convergence bound.
func RunScale(fullPush bool, groups int, seed int64, d Durations) ScaleResult {
	w := newScaleWorld(fullPush, seed)
	res := ScaleResult{Groups: groups}

	// Seed every mapping at server 0; anti-entropy spreads them.
	for i := 0; i < groups; i++ {
		w.servers[0].DB().Put(naming.Entry{
			LWG:  scaleLWG(i),
			View: ids.ViewID{Coord: ids.ProcessID(i % ScaleServers), Seq: 1},
			HWG:  ids.HWGID(i%8) + 1,
			Ver:  1,
		})
	}
	setup, ok := w.runUntilConverged(d.SetupMax)
	if !ok {
		return res
	}
	res.SetupMs = float64(setup) / float64(time.Millisecond)

	// Steady state: nothing changes; measure what reconciliation costs
	// anyway. Rounds are counted from the servers' own counters so the
	// normalization is exact regardless of timer phase.
	w.nw.ResetStats()
	for _, srv := range w.servers {
		srv.ResetSyncStats()
	}
	wallStart := time.Now()
	w.s.RunFor(d.Measure)
	res.SteadyWallMs = float64(time.Since(wallStart)) / float64(time.Millisecond)
	var rounds, mergeEntries, conflictChecks int64
	for _, srv := range w.servers {
		st := srv.SyncStats()
		rounds += st["rounds"]
		mergeEntries += st["merge_entries"]
		conflictChecks += st["conflict_checks"]
	}
	if rounds > 0 {
		bytes, frames := syncTraffic(w.nw.Stats())
		res.SyncBytesPerRound = float64(bytes) / float64(rounds)
		res.SyncFramesPerRound = float64(frames) / float64(rounds)
		res.MergeEntriesPerRound = float64(mergeEntries) / float64(rounds)
		res.ConflictChecksPerRound = float64(conflictChecks) / float64(rounds)
	}

	// Partition {0,1} | {2,3}, remap disjoint slices of the groups on
	// each side (new versions, different targets), converge each side
	// internally, then heal and time full re-convergence.
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	for i := 0; i < groups; i += 8 {
		w.servers[0].DB().Put(naming.Entry{
			LWG:  scaleLWG(i),
			View: ids.ViewID{Coord: ids.ProcessID(i % ScaleServers), Seq: 1},
			HWG:  100, Ver: 2,
		})
	}
	for i := 4; i < groups; i += 8 {
		w.servers[2].DB().Put(naming.Entry{
			LWG:  scaleLWG(i),
			View: ids.ViewID{Coord: ids.ProcessID(i % ScaleServers), Seq: 1},
			HWG:  101, Ver: 2,
		})
	}
	w.s.RunFor(2 * time.Second)
	w.nw.Heal()
	heal, ok := w.runUntilConverged(d.RecoveryMax)
	if !ok {
		return res
	}
	res.HealMs = float64(heal) / float64(time.Millisecond)
	res.Converged = true
	return res
}

// scaleModeName labels the two compared protocols.
func scaleModeName(fullPush bool) string {
	if fullPush {
		return "full-push"
	}
	return "digest-delta"
}

// FigScale renders the scaling sweep: for each LWG count, steady-state
// anti-entropy bytes per round under both protocols, the reduction
// factor, post-heal convergence times, and the host wall clock spent
// simulating each steady window (the one column that is not exact per
// seed, which is why FigScaleRecords leaves it out).
func FigScale(w io.Writer, groups []int, seed int64, d Durations) {
	fmt.Fprintf(w, "fig-scale — naming anti-entropy vs LWG count (%d servers, 100 Mbps LAN)\n",
		ScaleServers)
	fmt.Fprintf(w, "%7s %15s %15s %9s %12s %12s %12s %12s\n",
		"groups", "full B/round", "delta B/round", "reduction", "full heal", "delta heal",
		"full wall", "delta wall")
	for _, g := range groups {
		full := RunScale(true, g, seed, d)
		delta := RunScale(false, g, seed, d)
		if !full.Converged || !delta.Converged {
			fmt.Fprintf(w, "%7d %15s\n", g, "n/a")
			continue
		}
		reduction := 0.0
		if delta.SyncBytesPerRound > 0 {
			reduction = full.SyncBytesPerRound / delta.SyncBytesPerRound
		}
		fmt.Fprintf(w, "%7d %15.0f %15.1f %8.0fx %10.0fms %10.0fms %10.1fms %10.1fms\n",
			g, full.SyncBytesPerRound, delta.SyncBytesPerRound, reduction,
			full.HealMs, delta.HealMs, full.SteadyWallMs, delta.SteadyWallMs)
	}
}

// FigScaleRecords runs the sweep for the machine-readable report.
func FigScaleRecords(w io.Writer, groups []int, seed int64, d Durations) []Record {
	var recs []Record
	for _, g := range groups {
		for _, fullPush := range []bool{true, false} {
			mode := scaleModeName(fullPush)
			fmt.Fprintf(w, "  fig-scale groups=%d %s...\n", g, mode)
			r := RunScale(fullPush, g, seed, d)
			if !r.Converged {
				continue
			}
			recs = append(recs,
				Record{"fig-scale", mode, g, "sync_bytes_per_round", r.SyncBytesPerRound},
				Record{"fig-scale", mode, g, "sync_frames_per_round", r.SyncFramesPerRound},
				Record{"fig-scale", mode, g, "merge_entries_per_round", r.MergeEntriesPerRound},
				Record{"fig-scale", mode, g, "conflict_checks_per_round", r.ConflictChecksPerRound},
				Record{"fig-scale", mode, g, "setup_ms", r.SetupMs},
				Record{"fig-scale", mode, g, "heal_ms", r.HealMs})
		}
	}
	return recs
}
