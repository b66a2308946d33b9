package explore

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
)

// Bounded model checking over small-scope worlds (CHESS/dBug style
// stateless search). The enumerator walks the tree of operation prefixes
// breadth-first: every frontier entry is a concrete op list, re-executed
// from a fresh world (the simulation is deterministic, so re-execution IS
// state restoration). After each prefix it fingerprints the reached state
// (digest.go); a digest seen before prunes the branch, which is what
// closes the state graph and makes an exhaustive sweep of a small scope
// terminate.
//
// Every newly visited state is also probed for liveness: the world is
// healed and given the scope's quiescence window, then every safety
// invariant plus heal-convergence runs (exactly what Run does after the
// last op). A probe failure is a wedge — a reachable state from which the
// protocol cannot reconverge — and is reported as a Finding whose schedule
// replays under Run/Shrink/lwgcheck -replay unchanged.
//
// The sweep itself runs on the speculative worker-pool engine in
// engine.go: Par workers expand frontier entries concurrently while a
// single coordinator consumes their results in strict frontier order, so
// the stats, findings, swept verdict and checkpoint are identical at
// every parallelism level. POR and ProbeMemo enable the two pruning
// layers (partial-order reduction, por.go; probe-trajectory memoisation
// with settle-suffix riding, engine.go); both default off here so the
// zero config reproduces the original exhaustive sweep bit for bit.

// Scope bounds the small world the enumerator sweeps. The text form is
// "n<nodes>g<groups>[c<crashes>]", e.g. "n3g2" or "n4g2c1".
type Scope struct {
	// Nodes is the cluster size (naming server on node 0, never crashed).
	Nodes int
	// Groups is the number of light-weight groups (named a, b, ...).
	Groups int
	// Crashes is the crash budget (0 = no crash ops enumerated).
	Crashes int
	// OpDelay is the virtual time before each enumerated action op —
	// short, so ops land mid-reconfiguration. Settling is explored
	// separately through the wait op (Settle), which keeps the per-state
	// branching at k+1 instead of k×delay-choices.
	OpDelay time.Duration
	// Settle is the wait op's delay: long enough for in-flight
	// reconfiguration to complete, so settled branches collapse onto few
	// digests.
	Settle time.Duration
	// Quiesce is the liveness bound: the post-heal convergence window
	// every reachable state must reconverge within.
	Quiesce time.Duration
}

// ParseScope parses the "n<nodes>g<groups>[c<crashes>]" grammar.
func ParseScope(text string) (Scope, error) {
	sc := Scope{
		OpDelay: 50 * time.Millisecond,
		Settle:  500 * time.Millisecond,
		Quiesce: 12 * time.Second,
	}
	rest := text
	get := func(tag byte) (int, bool, error) {
		if rest == "" || rest[0] != tag {
			return 0, false, nil
		}
		i := 1
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 1 {
			return 0, false, fmt.Errorf("scope %q: %q wants digits", text, tag)
		}
		n, err := strconv.Atoi(rest[1:i])
		rest = rest[i:]
		return n, true, err
	}
	n, ok, err := get('n')
	if err != nil || !ok {
		return Scope{}, fmt.Errorf("scope %q: want n<nodes>g<groups>[c<crashes>]", text)
	}
	sc.Nodes = n
	g, ok, err := get('g')
	if err != nil || !ok {
		return Scope{}, fmt.Errorf("scope %q: want n<nodes>g<groups>[c<crashes>]", text)
	}
	sc.Groups = g
	if c, ok, err := get('c'); err != nil {
		return Scope{}, err
	} else if ok {
		sc.Crashes = c
	}
	if rest != "" {
		return Scope{}, fmt.Errorf("scope %q: trailing %q", text, rest)
	}
	if sc.Nodes < 2 || sc.Nodes > 5 {
		return Scope{}, fmt.Errorf("scope %q: nodes must be 2..5 (small-scope search)", text)
	}
	if sc.Groups < 1 || sc.Groups > 3 {
		return Scope{}, fmt.Errorf("scope %q: groups must be 1..3", text)
	}
	if sc.Crashes >= sc.Nodes-1 {
		return Scope{}, fmt.Errorf("scope %q: crash budget must leave two live nodes", text)
	}
	return sc, nil
}

// String renders the scope back into the ParseScope grammar.
func (sc Scope) String() string {
	s := fmt.Sprintf("n%dg%d", sc.Nodes, sc.Groups)
	if sc.Crashes > 0 {
		s += fmt.Sprintf("c%d", sc.Crashes)
	}
	return s
}

// lwgs names the scope's groups a, b, c...
func (sc Scope) lwgs() []ids.LWGID {
	out := make([]ids.LWGID, sc.Groups)
	for i := range out {
		out[i] = ids.LWGID(string(rune('a' + i)))
	}
	return out
}

// schedule builds the replayable schedule for one op prefix.
func (sc Scope) schedule(ops []Op) Schedule {
	return Schedule{
		Seed:    1, // inert: enumerated runs use the deterministic default network
		Nodes:   sc.Nodes,
		LWGs:    sc.lwgs(),
		Ops:     ops,
		Quiesce: sc.Quiesce,
		Origin:  fmt.Sprintf("enumerate -scope %s", sc),
	}
}

// maxFindings stops the sweep after this many failures; a real wedge
// tends to recur in every successor state, and the findings get shrunk
// anyway.
const maxFindings = 8

// EnumConfig configures one enumeration sweep.
type EnumConfig struct {
	Scope Scope
	// Depth bounds the op-prefix length (default 12).
	Depth int
	// Budget bounds the number of worlds executed — each dequeued prefix
	// costs one execution (re-run plus liveness probe). 0 = unbounded;
	// the sweep then runs until the state graph closes.
	Budget int
	// Par is the expansion worker count (default 1 = serial). Results are
	// identical at every value; higher values only change wall time.
	Par int
	// POR enables partial-order reduction of commutative successor
	// orderings (por.go).
	POR bool
	// ProbeMemo enables probe-trajectory memoisation and settle-suffix
	// riding (engine.go).
	ProbeMemo bool
	// Resume continues a checkpointed sweep instead of starting at the
	// empty prefix. The checkpoint's POR/ProbeMemo flags are part of the
	// sweep's identity and must match this config's.
	Resume *Checkpoint
	// Metrics, when set, receives progress counters (enum_*).
	Metrics *metrics.Registry
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// Progress, when positive, emits a heartbeat line to Log at this
	// interval: states visited, states/sec, runs, frontier size, deepest
	// prefix and (with ProbeMemo) the memo-hit rate. Long sweeps are
	// otherwise silent for minutes between the per-500-states lines.
	Progress time.Duration
}

func (c EnumConfig) withDefaults() EnumConfig {
	if c.Depth <= 0 {
		c.Depth = 12
	}
	if c.Par <= 0 {
		c.Par = 1
	}
	if c.Scope.OpDelay <= 0 {
		c.Scope.OpDelay = 50 * time.Millisecond
	}
	if c.Scope.Settle <= 0 {
		c.Scope.Settle = 500 * time.Millisecond
	}
	if c.Scope.Quiesce <= 0 {
		c.Scope.Quiesce = 12 * time.Second
	}
	return c
}

// EnumStats counts the sweep's work.
type EnumStats struct {
	// Visited is the number of distinct (abstracted) states reached.
	Visited int
	// Pruned counts prefixes whose end state had been visited already.
	Pruned int
	// Runs counts world executions (one per dequeued prefix).
	Runs int
	// Deepest is the longest prefix executed.
	Deepest int
}

// Finding is one schedule whose liveness probe or safety check failed.
type Finding struct {
	// Schedule replays the failure under Run (and lwgcheck -replay).
	Schedule Schedule
	// Result is the failing probe outcome.
	Result Result
}

// EnumResult is the outcome of a sweep.
type EnumResult struct {
	Stats    EnumStats
	Findings []Finding
	// Swept reports the frontier emptied within the budget: every
	// reachable abstracted state within Depth was visited.
	Swept bool
	// Checkpoint resumes the sweep where it stopped (nil when Swept).
	Checkpoint *Checkpoint
}

// Enumerate sweeps the scope. It is deterministic: the same config (and
// resume state) always produces the same stats and findings, at every
// worker count.
func Enumerate(cfg EnumConfig) EnumResult {
	cfg = cfg.withDefaults()
	e := newEngine(cfg)
	// The worker pool only changes execution strategy, never results, so
	// on a single-CPU box it is pure overhead (speculative expansions that
	// the coordinator invalidates have no parallel payback). Fall back to
	// the serial loop there; the determinism tests exercise the pool at
	// -par 8 regardless.
	if cfg.Par > 1 && runtime.GOMAXPROCS(0) > 1 {
		e.runParallel(cfg.Par)
	} else {
		e.runSerial()
	}
	e.setRate()
	remaining := len(e.queue) - e.nextConsume
	e.mFrontier.Set(int64(remaining))
	e.res.Swept = remaining == 0 && len(e.res.Findings) < maxFindings
	if !e.res.Swept {
		cp := &Checkpoint{
			Scope:     cfg.Scope,
			Depth:     cfg.Depth,
			POR:       cfg.POR,
			ProbeMemo: cfg.ProbeMemo,
			Visited:   e.visited.Sorted(),
			Stats:     e.res.Stats,
		}
		if cfg.ProbeMemo {
			cp.Memo = e.memo.Sorted()
		}
		anySleep := false
		for _, n := range e.queue[e.nextConsume:] {
			cp.Frontier = append(cp.Frontier, n.ops())
			cp.Sleep = append(cp.Sleep, n.sleep)
			anySleep = anySleep || len(n.sleep) > 0
		}
		if !anySleep {
			cp.Sleep = nil
		}
		e.res.Checkpoint = cp
	}
	return e.res
}

// enabledOps lists the operations applicable in the world's current
// intent state, in canonical order (kind, process, group, cut), each with
// the scope's short OpDelay, plus one long wait op. The guards mirror
// apply() exactly, so no enumerated op degrades to a no-op.
func (w *world) enabledOps(sc Scope) []Op {
	var out []Op
	for i := 0; i < sc.Nodes; i++ {
		p := ids.ProcessID(i)
		if w.crashed[p] {
			continue
		}
		for _, l := range w.lwgList {
			if !w.memberOf[l][p] {
				out = append(out, Op{Kind: OpJoin, P: p, LWG: l})
			} else {
				out = append(out, Op{Kind: OpLeave, P: p, LWG: l})
				out = append(out, Op{Kind: OpSend, P: p, LWG: l})
			}
		}
	}
	if w.cut == 0 {
		for cut := 1; cut < sc.Nodes; cut++ {
			out = append(out, Op{Kind: OpPart, Cut: cut})
		}
	} else {
		out = append(out, Op{Kind: OpHeal})
	}
	if len(w.crashed) < sc.Crashes {
		for i := 0; i < sc.Nodes; i++ {
			p := ids.ProcessID(i)
			if w.Servers[p] == nil && !w.crashed[p] {
				out = append(out, Op{Kind: OpCrash, P: p})
			}
		}
	}
	out = append(out, Op{Kind: OpPolicy})
	for i := range out {
		out[i].Delay = sc.OpDelay
	}
	// The settle branch: no action, just time — in-flight
	// reconfiguration completes, and most settled branches collapse
	// onto the same digest.
	out = append(out, Op{Delay: sc.Settle, Kind: OpWait})
	return out
}
