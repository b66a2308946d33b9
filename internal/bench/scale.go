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
// carrying a sweep of LWG counts and reports the digest/delta protocol on
// three axes: steady-state sync bytes per round, reconcile work per
// round, and post-heal convergence time. The point of the sweep is that
// the steady-state columns stay flat as the database grows.
//
// Unlike the Figure 2 experiments the servers carry the database alone
// (no core endpoints): at 4096 groups the interesting cost IS the
// reconciliation traffic. The sweep models a 100 Mbps switched LAN.

// ScaleServers is the fixed replica-set size of the fig-scale sweep.
const ScaleServers = 4

// scaleNetParams returns the fig-scale network model: a 100 Mbps LAN.
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

func newScaleWorld(seed int64) *scaleWorld {
	s := sim.New(seed)
	nw := netsim.New(s, scaleNetParams())
	w := &scaleWorld{s: s, nw: nw}
	pids := make([]ids.ProcessID, ScaleServers)
	for i := range pids {
		pids[i] = ids.ProcessID(i)
	}
	cfg := naming.Config{MappingTTL: -1}
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
	for _, kind := range []string{"naming-digest", "naming-delta"} {
		bytes += st.BytesByKind[kind]
		frames += st.ByKind[kind]
	}
	return bytes, frames
}

// RunScale measures one group-count cell: seed the database,
// converge, measure a quiescent steady-state window, then partition the
// replica set, diverge both sides, heal, and time re-convergence.
// Durations map as SetupMax → initial convergence bound, Measure →
// steady-state window, RecoveryMax → post-heal convergence bound.
func RunScale(groups int, seed int64, d Durations) ScaleResult {
	w := newScaleWorld(seed)
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

// scaleMode is the mode label of the fig-scale records.
const scaleMode = "digest-delta"

// FigScale renders the scaling sweep: for each LWG count, steady-state
// anti-entropy bytes and frames per round, post-heal convergence time,
// and the host wall clock spent simulating the steady window (the one
// column that is not exact per seed, which is why FigScaleRecords leaves
// it out).
func FigScale(w io.Writer, groups []int, seed int64, d Durations) {
	fmt.Fprintf(w, "fig-scale — naming anti-entropy vs LWG count (%d servers, 100 Mbps LAN)\n",
		ScaleServers)
	fmt.Fprintf(w, "%7s %12s %14s %10s %12s\n",
		"groups", "B/round", "frames/round", "heal", "steady wall")
	for _, g := range groups {
		r := RunScale(g, seed, d)
		if !r.Converged {
			fmt.Fprintf(w, "%7d %12s\n", g, "n/a")
			continue
		}
		fmt.Fprintf(w, "%7d %12.1f %14.2f %8.0fms %10.1fms\n",
			g, r.SyncBytesPerRound, r.SyncFramesPerRound, r.HealMs, r.SteadyWallMs)
	}
}

// FigScaleRecords runs the sweep for the machine-readable report.
func FigScaleRecords(w io.Writer, groups []int, seed int64, d Durations) []Record {
	var recs []Record
	for _, g := range groups {
		fmt.Fprintf(w, "  fig-scale groups=%d...\n", g)
		r := RunScale(g, seed, d)
		if !r.Converged {
			continue
		}
		recs = append(recs,
			Record{"fig-scale", scaleMode, g, "sync_bytes_per_round", r.SyncBytesPerRound},
			Record{"fig-scale", scaleMode, g, "sync_frames_per_round", r.SyncFramesPerRound},
			Record{"fig-scale", scaleMode, g, "merge_entries_per_round", r.MergeEntriesPerRound},
			Record{"fig-scale", scaleMode, g, "conflict_checks_per_round", r.ConflictChecksPerRound},
			Record{"fig-scale", scaleMode, g, "setup_ms", r.SetupMs},
			Record{"fig-scale", scaleMode, g, "heal_ms", r.HealMs})
	}
	return recs
}
