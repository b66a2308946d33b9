package explore

import (
	"plwg/internal/check"
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
	for _, op := range s.Ops {
		w.advance(op.Delay)
		if !w.completed {
			break
		}
		w.apply(op)
	}
	return w.finish()
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
