package explore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"plwg/internal/metrics"
)

// The enumeration engine: a speculative worker pool feeding a strictly
// ordered coordinator.
//
// The hard requirement is that Enumerate stays a pure function of its
// config — stats, findings, the swept verdict and the checkpoint must be
// byte-identical whether the sweep runs on one goroutine or eight. The
// engine gets this by construction rather than by canonicalising after
// the fact:
//
//   - Workers only ever do speculative, side-effect-free expansion: they
//     replay a frontier prefix, digest the reached state, compute its
//     enabled successors and run its liveness probe, then hand the bundle
//     (expandOut) to the coordinator. Workers read the visited and memo
//     sets but never write them.
//
//   - The coordinator consumes results in exact frontier order and
//     replays the serial decision procedure on each: budget and
//     finding-cap checks before every consumption, then run accounting,
//     livelock handling, the visited-set admission decision, probe
//     verdict and child enqueueing. All state that feeds results is
//     written only here, on one goroutine, in frontier order.
//
// Speculation is safe because both shared sets are add-only and all adds
// happen before the consumption that observes them: a worker that sees a
// digest in the visited set knows the coordinator will see it too (it can
// skip the probe), and a worker that stops a probe on a memo hit knows
// the hit still stands at consumption time. The reverse misses — a
// worker missing an entry that exists by consumption time — only cost
// wasted work (enum_speculation_waste_total), never a wrong result: the
// coordinator re-derives every verdict against the authoritative sets.
//
// Probe-trajectory memoisation (EnumConfig.ProbeMemo) is what makes the
// probe — 75-80% of a sweep's wall time without it — cheap: the liveness
// probe advances in Settle-sized chunks and digests each boundary, and a
// boundary digest seen on an earlier passing trajectory means this
// trajectory has joined one that already converged and passed, so the
// probe stops there (memo hits land on chunk one ~85% of the time). The
// memo set holds only digests from trajectories that passed; failures
// always come from a full concrete probe, so findings keep replaying
// exactly as without the memo. Like the visited-set pruning, the
// shortcut works at the digest abstraction (digest.go): it trades the
// same abstract-vs-concrete coverage gap for an order of magnitude of
// throughput, and -probe-memo=false restores the exact probe.
//
// Settle-suffix riding is the incremental-replay half of the same idea.
// The simulator's event queue holds closures, so a world cannot be
// snapshotted or cloned; what CAN be reused is the probe trajectory
// itself. For a healed state S the probe is heal (a no-op, world.heal) +
// pure advance — which is exactly the timeline of S's wait-successor: the
// probe's first chunk boundary IS the wait-child's state, the second is
// the wait-grandchild's, and the parent's enabled set is the child's
// (pure advance cannot change the intent state that enables ops). The
// coordinator therefore attaches the observed trajectory to the wait
// child (rideInfo), and a worker expanding that child serves its digest,
// successors and — via the memo — its probe verdict without building a
// world at all. Riding is an execution strategy, not a semantics: any
// ride the data cannot support falls back to a full replay, and the
// ride-vs-replay equivalence is property-tested (TestRideEquivalence).
// Step-budget accounting survives the shortcut too: the child's replay
// would consume exactly the parent-replay + one-chunk steps that the
// parent's probe already consumed, so a livelock impossible there is
// impossible here.

// --- sharded digest sets ------------------------------------------------------

// shardedSet is a fixed-shard digest set: coordinator-only writes,
// lock-cheap concurrent reads from the workers. Sharding keys on the
// digest's high byte so that concatenating per-shard sorted contents in
// shard order yields the globally sorted digest list (checkpoints rely
// on it).
type shardedSet struct {
	shards [256]digestShard
}

type digestShard struct {
	mu sync.RWMutex
	m  map[uint64]struct{}
}

func newShardedSet() *shardedSet {
	s := &shardedSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]struct{})
	}
	return s
}

func (s *shardedSet) shard(d uint64) *digestShard { return &s.shards[d>>56] }

func (s *shardedSet) Has(d uint64) bool {
	sh := s.shard(d)
	sh.mu.RLock()
	_, ok := sh.m[d]
	sh.mu.RUnlock()
	return ok
}

func (s *shardedSet) Add(d uint64) {
	sh := s.shard(d)
	sh.mu.Lock()
	sh.m[d] = struct{}{}
	sh.mu.Unlock()
}

func (s *shardedSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Sorted returns every digest in ascending order (nil when empty).
func (s *shardedSet) Sorted() []uint64 {
	n := s.Len()
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		start := len(out)
		for d := range sh.m {
			out = append(out, d)
		}
		sh.mu.RUnlock()
		part := out[start:]
		sort.Slice(part, func(a, b int) bool { return part[a] < part[b] })
	}
	return out
}

// --- frontier ----------------------------------------------------------------

// pnode is one frontier entry: an op appended to a shared parent prefix.
// Interning the prefixes in a parent-pointer tree keeps the frontier at
// O(entries) instead of O(entries × depth) — siblings share their whole
// history — and the concrete op slice is materialised only at expansion
// (and checkpoint) time. Nodes are immutable once enqueued, which is
// what lets workers walk them without locks.
type pnode struct {
	parent *pnode
	op     Op
	depth  int
	// sleep is the node's POR sleep set (por.go): enabled ops whose
	// subtrees are commuted reorderings of sibling subtrees already
	// enqueued. Empty unless the sweep runs with POR.
	sleep []Op
	// ride, when set, is the settle-suffix ride ticket for this wait op
	// (see the package comment above).
	ride *rideInfo
}

// rideInfo carries a healed parent state's observed probe trajectory to
// its wait-successor: traj[0] is the child's own state digest, traj[1]
// the grandchild's, and succ is the parent's unfiltered enabled set —
// equal to the child's, since pure advance cannot change intent state.
type rideInfo struct {
	traj []uint64
	succ []Op
}

// ops materialises the node's full op prefix (nil for the root).
func (n *pnode) ops() []Op {
	if n.depth == 0 {
		return nil
	}
	out := make([]Op, n.depth)
	for m := n; m != nil && m.depth > 0; m = m.parent {
		out[m.depth-1] = m.op
	}
	return out
}

// nodeFromOps rebuilds a frontier chain from a checkpointed op list.
func nodeFromOps(ops []Op) *pnode {
	n := &pnode{}
	for _, op := range ops {
		n = &pnode{parent: n, op: op, depth: n.depth + 1}
	}
	return n
}

// --- probe -------------------------------------------------------------------

// probeOutcome is one liveness probe's observation: the digest at every
// Settle boundary it advanced through, the 1-based chunk of the memo hit
// that stopped it (0 = ran to full quiescence), and — only when it ran
// full — the concrete check result. pre marks a probe that never started:
// the state's own digest was already in the memo (it appeared on an
// earlier passing trajectory), so it converges by the same bitstate
// argument as a chunk hit.
type probeOutcome struct {
	pre  bool
	traj []uint64
	hit  int
	res  Result
}

// probe runs the liveness probe. With a nil memoHit it is exactly
// finish(): heal, one advance over the whole quiescence window, checks.
// With memoHit it advances in Settle-sized chunks, digests each boundary
// and stops early when the trajectory joins a memoised passing one;
// chunked advances are step-for-step identical to one long advance, so a
// full chunked probe ends in the same state (and the same step budget)
// as finish() would.
func (w *world) probe(sc Scope, memoHit func(uint64) bool) probeOutcome {
	if memoHit == nil {
		return probeOutcome{res: w.finish()}
	}
	out := probeOutcome{}
	w.heal()
	remaining := w.sched.Quiesce
	for chunk := 1; remaining > 0; chunk++ {
		step := sc.Settle
		if step > remaining {
			step = remaining
		}
		w.advance(step)
		remaining -= step
		if !w.completed {
			out.res = w.checksNow()
			return out
		}
		d := w.digest()
		out.traj = append(out.traj, d)
		if memoHit(d) {
			out.hit = chunk
			return out
		}
	}
	out.res = w.checksNow()
	return out
}

// --- engine ------------------------------------------------------------------

// expandOut is a worker's speculative expansion of one frontier entry.
type expandOut struct {
	// livelock: the prefix itself exhausted the step budget.
	livelock    bool
	livelockRes Result

	digest uint64
	// prunedSpec: the worker saw the digest already visited and skipped
	// successor computation and the probe.
	prunedSpec bool
	// rode: served from the parent's probe trajectory, no world built.
	rode bool

	healed bool
	succ   []Op // the enabled successor set

	probe probeOutcome
}

type engine struct {
	cfg    EnumConfig
	sc     Scope
	memoOn bool
	porOn  bool

	visited *shardedSet
	memo    *shardedSet

	queue       []*pnode
	nextConsume int

	res          EnumResult
	sliceRuns    int
	sliceVisited int
	start        time.Time
	lastBeat     time.Time

	logf func(string, ...any)

	mRuns, mStates, mPruned, mFound       *metrics.Counter
	mMemoHits, mRideHits, mPORCut, mWaste *metrics.Counter
	mFrontier, mBusy, mStatesPerSec       *metrics.Gauge
}

func newEngine(cfg EnumConfig) *engine {
	e := &engine{
		cfg:    cfg,
		sc:     cfg.Scope,
		memoOn: cfg.ProbeMemo,
		porOn:  cfg.POR,

		visited: newShardedSet(),
		memo:    newShardedSet(),

		start:    time.Now(),
		lastBeat: time.Now(),

		mRuns:         cfg.Metrics.Counter("enum_runs_total"),
		mStates:       cfg.Metrics.Counter("enum_states_total"),
		mPruned:       cfg.Metrics.Counter("enum_pruned_total"),
		mFound:        cfg.Metrics.Counter("enum_findings_total"),
		mMemoHits:     cfg.Metrics.Counter("enum_memo_hits_total"),
		mRideHits:     cfg.Metrics.Counter("enum_ride_hits_total"),
		mPORCut:       cfg.Metrics.Counter("enum_por_skipped_total"),
		mWaste:        cfg.Metrics.Counter("enum_speculation_waste_total"),
		mFrontier:     cfg.Metrics.Gauge("enum_frontier"),
		mBusy:         cfg.Metrics.Gauge("enum_worker_busy"),
		mStatesPerSec: cfg.Metrics.Gauge("enum_states_per_sec"),
	}
	e.logf = cfg.Log
	if e.logf == nil {
		e.logf = func(string, ...any) {}
	}
	if cfg.Resume != nil {
		for _, d := range cfg.Resume.Visited {
			e.visited.Add(d)
		}
		if e.memoOn {
			for _, d := range cfg.Resume.Memo {
				e.memo.Add(d)
			}
		}
		for i, ops := range cfg.Resume.Frontier {
			n := nodeFromOps(ops)
			if i < len(cfg.Resume.Sleep) {
				n.sleep = cfg.Resume.Sleep[i]
			}
			e.queue = append(e.queue, n)
		}
		e.res.Stats = cfg.Resume.Stats
	} else {
		e.queue = []*pnode{{}} // the root: no ops applied
	}
	return e
}

// stop mirrors the serial loop's pre-dequeue guards.
func (e *engine) stop() bool {
	if e.cfg.Budget > 0 && e.sliceRuns >= e.cfg.Budget {
		return true
	}
	return len(e.res.Findings) >= maxFindings
}

// expand is the worker side: speculative, side-effect-free (shared sets
// are only read), deterministic in everything that reaches results.
func (e *engine) expand(n *pnode) expandOut {
	if e.memoOn && n.ride != nil {
		r := n.ride
		if e.visited.Has(r.traj[0]) {
			e.mRideHits.Inc()
			return expandOut{digest: r.traj[0], prunedSpec: true, rode: true}
		}
		if e.memo.Has(r.traj[0]) {
			// The child's own state is memoised — the common case, since a
			// parent whose probe hit at chunk one put exactly this digest in
			// the memo. The rest of the trajectory rides on to the next wait
			// child.
			e.mRideHits.Inc()
			return expandOut{
				digest: r.traj[0],
				rode:   true,
				healed: true,
				succ:   r.succ,
				probe:  probeOutcome{pre: true, traj: r.traj[1:]},
			}
		}
		if len(r.traj) >= 2 && e.memo.Has(r.traj[1]) {
			e.mRideHits.Inc()
			return expandOut{
				digest: r.traj[0],
				rode:   true,
				healed: true,
				succ:   r.succ,
				probe:  probeOutcome{traj: r.traj[1:], hit: 1},
			}
		}
		// The ride data cannot support this child (trajectory too short,
		// or no memo verdict): fall through to a full replay.
	}
	return e.expandFull(n)
}

// expandFull replays the prefix from a fresh world and runs the full
// expansion: digest, enabled successors, POR filter, liveness probe.
func (e *engine) expandFull(n *pnode) expandOut {
	s := e.sc.schedule(n.ops())
	w := newWorld(s)
	for _, op := range s.Ops {
		w.advance(op.Delay)
		if !w.completed {
			break
		}
		w.apply(op)
	}
	if !w.completed {
		return expandOut{livelock: true, livelockRes: w.finish()}
	}
	d := w.digest()
	if e.visited.Has(d) {
		return expandOut{digest: d, prunedSpec: true}
	}
	out := expandOut{digest: d, healed: w.cut == 0}
	out.succ = w.enabledOps(e.sc)
	if e.memoOn && e.memo.Has(d) {
		out.probe = probeOutcome{pre: true}
		return out
	}
	var memoHit func(uint64) bool
	if e.memoOn {
		memoHit = e.memo.Has
	}
	out.probe = w.probe(e.sc, memoHit)
	return out
}

// consume applies the serial decision procedure to one expansion result,
// in frontier order, on the coordinator goroutine. e.nextConsume has
// already been advanced past n.
func (e *engine) consume(n *pnode, out expandOut) {
	// Validate the speculation against the authoritative sets. Both
	// misses are unreachable (the sets are add-only and every add
	// happened before this consumption), but a full re-expansion keeps
	// even that failure mode deterministic.
	if !out.livelock {
		if out.prunedSpec && !e.visited.Has(out.digest) {
			out = e.expandFull(n)
		} else if out.probe.pre && !e.memo.Has(out.digest) {
			out = e.expandFull(n)
		} else if out.probe.hit > 0 && !e.memoHasAny(out.probe.traj) {
			out = e.expandFull(n)
		}
	}

	e.res.Stats.Runs++
	e.sliceRuns++
	e.mRuns.Inc()
	if n.depth > e.res.Stats.Deepest {
		e.res.Stats.Deepest = n.depth
	}
	if out.livelock {
		// The prefix itself livelocked — a wedge before the probe.
		e.addFinding(n, out.livelockRes)
		e.logf("wedge (livelock) at depth %d after %d runs", n.depth, e.res.Stats.Runs)
		return
	}
	if e.visited.Has(out.digest) {
		e.res.Stats.Pruned++
		e.mPruned.Inc()
		if !out.prunedSpec && !out.rode {
			// The worker probed a state that a same-window sibling
			// admitted first: correct, just wasted.
			e.mWaste.Inc()
		}
		return
	}
	e.visited.Add(out.digest)
	e.res.Stats.Visited++
	e.sliceVisited++
	e.mStates.Inc()
	if e.res.Stats.Visited%500 == 0 {
		e.logf("visited %d states, %d pruned, frontier %d, depth %d",
			e.res.Stats.Visited, e.res.Stats.Pruned, len(e.queue)-e.nextConsume, n.depth)
		e.setRate()
	}

	// Probe verdict, normalised against the memo as of this consumption:
	// the pass/fail decision and the memo additions depend only on the
	// deterministic digest/trajectory and the deterministic memo state,
	// never on how far a worker happened to get before stopping.
	if e.memoOn && e.memo.Has(out.digest) {
		// Chunk-zero hit: the state itself is on a passing trajectory.
		// Nothing new to memoise, and whatever probe work a worker did
		// before this digest entered the memo is discarded.
		e.mMemoHits.Inc()
		if n.depth >= e.cfg.Depth {
			return
		}
		e.enqueueChildren(n, out)
		return
	}
	hitChunk := 0
	if e.memoOn {
		for i, t := range out.probe.traj {
			if e.memo.Has(t) {
				hitChunk = i + 1
				break
			}
		}
	}
	if hitChunk > 0 {
		for _, t := range out.probe.traj[:hitChunk-1] {
			e.memo.Add(t)
		}
		e.mMemoHits.Inc()
	} else {
		// No shortcut applied: the probe ran to full quiescence and its
		// concrete verdict stands.
		if out.probe.res.Failed() {
			e.addFinding(n, out.probe.res)
			e.logf("wedge at depth %d: %d violations, completed=%v",
				n.depth, len(out.probe.res.Violations), out.probe.res.Completed)
			return
		}
		if e.memoOn {
			for _, t := range out.probe.traj {
				e.memo.Add(t)
			}
		}
	}

	if n.depth >= e.cfg.Depth {
		return
	}
	e.enqueueChildren(n, out)
}

// enqueueChildren appends the state's successors to the frontier: POR
// sleep filtering, child sleep-set construction, and the ride ticket for
// the wait child of a healed state with an observed trajectory.
func (e *engine) enqueueChildren(n *pnode, out expandOut) {
	var ride *rideInfo
	if e.memoOn && out.healed && len(out.probe.traj) > 0 {
		ride = &rideInfo{traj: out.probe.traj, succ: out.succ}
	}
	var explored []Op
	for _, op := range out.succ {
		if e.porOn && porSleeps(n.sleep, op) {
			e.mPORCut.Inc()
			continue // a sibling subtree covers every interleaving below this op
		}
		child := &pnode{parent: n, op: op, depth: n.depth + 1}
		if e.porOn {
			child.sleep = porChildSleep(n.sleep, explored, op)
			explored = append(explored, op)
		}
		if op.Kind == OpWait && ride != nil {
			child.ride = ride
		}
		e.queue = append(e.queue, child)
	}
}

func (e *engine) memoHasAny(traj []uint64) bool {
	for _, t := range traj {
		if e.memo.Has(t) {
			return true
		}
	}
	return false
}

func (e *engine) addFinding(n *pnode, r Result) {
	e.res.Findings = append(e.res.Findings, Finding{Schedule: e.sc.schedule(n.ops()), Result: r})
	e.mFound.Inc()
}

// heartbeat emits the Progress line when the interval has elapsed. Both
// run loops call it once per consumption, on the coordinator goroutine,
// so the reported stats are always a consistent frontier-ordered
// snapshot regardless of the worker count.
func (e *engine) heartbeat() {
	if e.cfg.Progress <= 0 || time.Since(e.lastBeat) < e.cfg.Progress {
		return
	}
	e.lastBeat = time.Now()
	e.setRate()
	line := fmt.Sprintf("progress: %d states (%d/s), %d runs, %d pruned, frontier %d, deepest %d",
		e.res.Stats.Visited, e.mStatesPerSec.Value(), e.res.Stats.Runs,
		e.res.Stats.Pruned, len(e.queue)-e.nextConsume, e.res.Stats.Deepest)
	if e.memoOn && e.res.Stats.Runs > 0 {
		hits := e.mMemoHits.Value() + e.mRideHits.Value()
		line += fmt.Sprintf(", memo-hit %d%%", 100*hits/int64(e.res.Stats.Runs))
	}
	e.logf("%s", line)
}

func (e *engine) setRate() {
	secs := time.Since(e.start).Seconds()
	if secs <= 0 {
		return
	}
	e.mStatesPerSec.Set(int64(float64(e.sliceVisited) / secs))
}

// runSerial is the -par 1 path: the identical decision procedure with
// expansion inlined at the consumption point (no goroutines, no
// speculation window).
func (e *engine) runSerial() {
	for e.nextConsume < len(e.queue) && !e.stop() {
		n := e.queue[e.nextConsume]
		e.nextConsume++
		e.mFrontier.Set(int64(len(e.queue) - e.nextConsume))
		e.consume(n, e.expand(n))
		e.heartbeat()
	}
}

// runParallel fans expansion out to par workers while the coordinator
// consumes strictly in frontier order.
func (e *engine) runParallel(par int) {
	type task struct {
		idx int
		n   *pnode
	}
	type done struct {
		idx int
		out expandOut
	}
	// The speculation window bounds in-flight work; the result buffer is
	// sized to it, so a worker send never blocks and closing the task
	// channel can never deadlock the drain.
	window := par * 2
	taskCh := make(chan task, window)
	resCh := make(chan done, window)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				resCh <- done{t.idx, e.expand(t.n)}
			}
		}()
	}

	pending := make(map[int]expandOut, window)
	dispatched := 0
	inFlight := 0
	for e.nextConsume < len(e.queue) && !e.stop() {
		// With a budget, entries at index >= Budget can never be consumed
		// this slice (each consumption costs exactly one run), so they are
		// never dispatched: a budget stop wastes zero speculation.
		limit := len(e.queue)
		if e.cfg.Budget > 0 && e.cfg.Budget < limit {
			limit = e.cfg.Budget
		}
		for dispatched < limit && inFlight < window {
			taskCh <- task{dispatched, e.queue[dispatched]}
			dispatched++
			inFlight++
		}
		e.mBusy.Set(int64(inFlight))
		idx := e.nextConsume
		out, ok := pending[idx]
		for !ok {
			d := <-resCh
			inFlight--
			pending[d.idx] = d.out
			out, ok = pending[idx]
		}
		delete(pending, idx)
		e.nextConsume++
		e.mFrontier.Set(int64(len(e.queue) - e.nextConsume))
		e.consume(e.queue[idx], out)
		e.heartbeat()
	}
	close(taskCh)
	wg.Wait()
	// Discard results of entries dispatched but never consumed (budget or
	// finding-cap stop): they stay in the frontier for the next slice.
	for len(resCh) > 0 {
		<-resCh
	}
	e.mBusy.Set(0)
}
