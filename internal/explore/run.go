package explore

import (
	"fmt"
	"slices"
	"time"

	"plwg/internal/check"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/trace"
)

// maxSteps bounds the simulation work of one run. A protocol bug that
// floods the event queue (a retry storm, a livelock) fails the run as
// incomplete instead of hanging the sweep.
const maxSteps = 4_000_000

// Result is the outcome of running one schedule.
type Result struct {
	// Violations are the detected safety breaches, deterministically
	// ordered. A run "fails" when this is non-empty or Completed is
	// false.
	Violations []check.Violation
	// Completed reports that the whole schedule ran within the step
	// budget (false indicates a livelock or event flood).
	Completed bool
	// World is the checked snapshot (trace, endpoints, naming state).
	World *check.World
}

// Failed reports whether the run violated an invariant or livelocked.
func (r Result) Failed() bool { return len(r.Violations) > 0 || !r.Completed }

// Run executes the schedule against the full stack — endpoints, virtual
// synchrony substrate, naming servers, simulated network — and checks
// every safety property at quiescence. It is deterministic: the same
// schedule always yields the same Result.
func Run(s Schedule) Result {
	w := newWorld(s)
	play(w)
	return w.finish()
}

// intent is a schedule's intended state, kept by apply on either clock:
// the membership the checker expects (the joins minus the leaves and
// crashes the schedule performed), the crashed set, the applied
// partition and the payload counter.
type intent struct {
	sched    Schedule
	memberOf map[ids.LWGID]map[ids.ProcessID]bool
	crashed  map[ids.ProcessID]bool
	// cut is the currently applied partition split (0 = healed).
	cut   int
	msgID int
}

func newIntent(s Schedule) intent {
	in := intent{
		sched:    s,
		memberOf: make(map[ids.LWGID]map[ids.ProcessID]bool),
		crashed:  make(map[ids.ProcessID]bool),
	}
	for _, l := range s.LWGs {
		in.memberOf[l] = make(map[ids.ProcessID]bool)
	}
	return in
}

// intended gives apply the state of the backend that embeds it.
func (in *intent) intended() *intent { return in }

// live lists the processes that have not crashed, in process order.
func (in *intent) live() []ids.ProcessID {
	var out []ids.ProcessID
	for i := 0; i < in.sched.Nodes; i++ {
		if p := ids.ProcessID(i); !in.crashed[p] {
			out = append(out, p)
		}
	}
	return out
}

// checked assembles the checker's snapshot of a run from a backend's
// trace and process state: the schedule's delivery suppression applied,
// and every group expected to converge to the processes left joined.
func (in *intent) checked(events []trace.Event, procs map[ids.ProcessID]check.Process, dbs map[ids.ProcessID]*naming.DB) *check.World {
	expected := make(map[ids.LWGID]ids.Members, len(in.memberOf))
	for l, ps := range in.memberOf {
		ms := make([]ids.ProcessID, 0, len(ps))
		for p := range ps {
			ms = append(ms, p)
		}
		expected[l] = ids.NewMembers(ms...)
	}
	return &check.World{
		Events:   injectFault(events, in.sched.Fault),
		Procs:    procs,
		Servers:  dbs,
		Expected: expected,
		Crashed:  in.crashed,
	}
}

// backend is one clock's live cluster. apply decides whether an op takes
// effect and keeps the intended state; the backend only performs it.
type backend interface {
	intended() *intent
	join(p ids.ProcessID, l ids.LWGID) error
	leave(p ids.ProcessID, l ids.LWGID)
	send(p ids.ProcessID, l ids.LWGID, payload []byte)
	part(cut int)
	heal()
	crash(p ids.ProcessID)
	policy(p ids.ProcessID)
	// advance lets d pass. It reports false once the clock has given out
	// (the simulator's step budget); no op may be applied after that.
	advance(d time.Duration) bool
	// finish lets the cluster reconverge, runs every safety check and
	// releases the cluster.
	finish() Result
}

// play applies the schedule's ops to b, each after its delay, and stops
// early when b's clock gives out (finish then reports the run incomplete).
func play(b backend) {
	for _, op := range b.intended().sched.Ops {
		if !b.advance(op.Delay) {
			return
		}
		apply(b, op)
	}
}

// apply performs one operation (after its Delay has passed). Inapplicable
// operations degrade to no-ops, exactly as documented on Op; enabledOps
// mirrors these guards.
func apply(b backend, op Op) {
	in := b.intended()
	p, l := op.P, op.LWG
	up := p >= 0 && int(p) < in.sched.Nodes && !in.crashed[p]
	switch op.Kind {
	case OpJoin:
		// A group the schedule did not declare has no membership map.
		if up && in.memberOf[l] != nil && !in.memberOf[l][p] && b.join(p, l) == nil {
			in.memberOf[l][p] = true
		}
	case OpLeave:
		if up && in.memberOf[l][p] {
			b.leave(p, l)
			delete(in.memberOf[l], p)
		}
	case OpSend:
		if up && in.memberOf[l][p] {
			in.msgID++
			b.send(p, l, []byte(fmt.Sprintf("m%d", in.msgID)))
		}
	case OpPart:
		if op.Cut > 0 && op.Cut < in.sched.Nodes {
			b.part(op.Cut)
			in.cut = op.Cut
		}
	case OpHeal:
		b.heal()
		in.cut = 0
	case OpCrash:
		if up && !slices.Contains(in.sched.Servers(), p) {
			b.crash(p)
			in.crashed[p] = true
			for _, l := range in.sched.LWGs {
				delete(in.memberOf[l], p)
			}
		}
	case OpPolicy:
		// Process order, so message emission is deterministic.
		for _, q := range in.live() {
			b.policy(q)
		}
	case OpWait:
		// No action: the op's Delay already passed before apply.
	}
}

// Clock is where schedules run: the zero Clock is the simulator (Run),
// and Loopback returns one that runs a live rtnet cluster over real UDP
// on the loopback.
type Clock struct{ rt *RTOptions }

// Loopback returns the real-network clock with the given options.
func Loopback(o RTOptions) Clock { return Clock{rt: &o} }

// Run executes the schedule on the clock. Only the loopback clock
// returns an error: a bad fault spec or a socket the host refused.
func (c Clock) Run(s Schedule) (Result, error) {
	if c.rt == nil {
		return Run(s), nil
	}
	b, err := newRTCluster(s, *c.rt)
	if err != nil {
		return Result{}, err
	}
	play(b)
	return b.finish(), nil
}

// Sweep runs the schedules for seeds start..start+count-1 on the clock,
// up to par at a time, and returns the failing ones in seed order.
// report, when non-nil, is called once per seed on the calling goroutine,
// in seed order whatever par is. Random stamps the sweep's fault spec
// (g.Faults) into each schedule, so printed reproducers are
// self-contained.
func Sweep(c Clock, start int64, count int, g GenConfig, par int, report func(seed int64, r Result)) ([]Schedule, error) {
	if _, err := faults.Parse(g.Faults); err != nil {
		return nil, err
	}
	par = max(par, 1)
	// order hands each seed's result to the reporter in seed order. Its
	// capacity bounds how far the workers run ahead of the oldest
	// unreported seed, so at most par+2 results are held at once.
	order := make(chan chan Result, par)
	sem := make(chan struct{}, par)
	go func() {
		defer close(order)
		for seed := start; seed < start+int64(count); seed++ {
			sem <- struct{}{}
			done := make(chan Result, 1)
			go func() {
				// The spec was validated above, so a run error is an
				// environment failure (socket exhaustion); its zero
				// Result reports the seed as an incomplete run.
				r, _ := c.Run(Random(seed, g))
				<-sem
				done <- r
			}()
			order <- done
		}
	}()
	var failing []Schedule
	seed := start
	for done := range order {
		r := <-done
		if report != nil {
			report(seed, r)
		}
		if r.Failed() {
			failing = append(failing, Random(seed, g))
		}
		seed++
	}
	return failing, nil
}

// injectFault suppresses the Drop-th LWG delivery at Fault.Node,
// simulating a process that skipped an upcall. With Drop == 0 the trace
// passes through untouched.
func injectFault(events []trace.Event, f Fault) []trace.Event {
	if f.Drop <= 0 {
		return events
	}
	out := make([]trace.Event, 0, len(events))
	n := 0
	for _, e := range events {
		if e.Layer == "lwg" && e.What == trace.LWGDeliver && e.Node == f.Node {
			n++
			if n == f.Drop {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}
