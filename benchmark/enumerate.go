package main

import (
	"fmt"
	"time"

	"plwg/internal/explore"
	"plwg/internal/metrics"
)

// check-enumerate sweeps scope n3g2 with the enumerator's full engine
// (two workers, partial-order reduction, probe memoisation). The sweep
// is a fixed amount of work, so the depth — not the elapsed time — is
// what --seconds selects, and the counts of every depth are pinned: a
// change that visits one state more or fewer is a behaviour change.
const (
	enumScope = "n3g2"
	enumPar   = 2
)

var enumPins = map[int]explore.EnumStats{
	4: {Visited: 1112, Pruned: 1908, Runs: 3020},
	5: {Visited: 3740, Pruned: 7857, Runs: 11597},
	6: {Visited: 11544, Pruned: 28656, Runs: 40200},
}

func enumDepth(seconds int) int {
	switch {
	case seconds >= 10:
		return 6
	case seconds >= 3:
		return 5
	}
	return 4
}

// runEnumerate sweeps the scope to depth once. With traced set the
// engine's own counters are attached and reported.
func runEnumerate(depth int, traced bool) (*Result, error) {
	res := newResult("check-enumerate")
	res.Traced = traced
	sc, err := explore.ParseScope(enumScope)
	if err != nil {
		return nil, err
	}
	cfg := explore.EnumConfig{Scope: sc, Depth: depth, Par: enumPar, POR: true, ProbeMemo: true}
	var reg *metrics.Registry
	if traced {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	t0 := time.Now()
	out := explore.Enumerate(cfg)
	elapsed := time.Since(t0)

	res.Attempted = 1
	pin := enumPins[depth]
	got := out.Stats
	if got.Visited != pin.Visited || got.Pruned != pin.Pruned || got.Runs != pin.Runs {
		res.violate("depth %d visited/pruned/runs = %d/%d/%d, pinned %d/%d/%d",
			depth, got.Visited, got.Pruned, got.Runs, pin.Visited, pin.Pruned, pin.Runs)
	}
	if !out.Swept {
		res.violate("depth %d was not swept", depth)
	}
	for _, f := range out.Findings {
		res.violate("finding: %s", fmt.Sprint(f.Result.Violations))
	}
	if !res.Correct {
		res.Failed = 1
	}

	states := float64(got.Visited)
	if !traced {
		res.set("enum_states_per_s", "states/s", states/elapsed.Seconds(), int64(got.Visited))
		res.note("scope %s depth %d par %d: %d states, %d pruned, %d runs in %.2f s",
			enumScope, depth, enumPar, got.Visited, got.Pruned, got.Runs, elapsed.Seconds())
		return res, nil
	}
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	res.set("explore.states_per_s", "states/s", states/elapsed.Seconds(), int64(got.Visited))
	res.set("explore.runs_per_state", "ratio", float64(got.Runs)/states, int64(got.Visited))
	res.set("explore.memo_hit_rate", "ratio", c("enum_memo_hits_total")/states, int64(got.Visited))
	res.set("explore.ride_hits", "count", c("enum_ride_hits_total"), 1)
	res.set("explore.por_skipped", "count", c("enum_por_skipped_total"), 1)
	res.set("explore.speculation_waste", "count", c("enum_speculation_waste_total"), 1)
	res.set("explore.world_run_us", "us", float64(elapsed.Microseconds())*enumPar/float64(got.Runs), int64(got.Runs))
	return res, nil
}
