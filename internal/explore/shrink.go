package explore

import (
	"fmt"
	"time"

	"plwg/internal/ids"
)

// ShrinkBudget bounds the number of candidate runs one Shrink may spend.
const ShrinkBudget = 400

// Shrink reduces a failing schedule to a (locally) minimal reproducer by
// delta debugging: it drops operation chunks at decreasing granularity,
// then trims trailing unused nodes, then shortens delays and the
// quiescence window — keeping each change only if the schedule still
// fails. The result fails under Run and usually pinpoints the few
// operations that matter.
func Shrink(s Schedule, fails func(Schedule) bool) Schedule {
	budget := ShrinkBudget
	attempt := func(cand Schedule) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return fails(cand)
	}

	best := s

	// Phase 1: ddmin over the operation list.
	for chunk := (len(best.Ops) + 1) / 2; chunk >= 1; {
		removed := false
		for i := 0; i+chunk <= len(best.Ops); {
			cand := best
			cand.Ops = append(append([]Op{}, best.Ops[:i]...), best.Ops[i+chunk:]...)
			if attempt(cand) {
				best = cand
				removed = true
			} else {
				i += chunk
			}
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(best.Ops) {
			chunk = len(best.Ops)
		}
	}

	// Phase 2: drop trailing nodes no operation references. The fault
	// node and the naming servers must survive.
	for best.Nodes > 2 {
		cand := best
		cand.Nodes--
		gone := ids.ProcessID(cand.Nodes)
		if refsNode(best, gone) {
			break
		}
		for _, o := range cand.Ops {
			if o.Kind == OpPart && o.Cut >= cand.Nodes {
				gone = -1 // partition cut would become a no-op; stop
			}
		}
		if gone < 0 || !attempt(cand) {
			break
		}
		best = cand
	}

	// Phase 3: halve operation delays, then the quiescence window.
	for i := range best.Ops {
		for best.Ops[i].Delay >= 100*time.Millisecond {
			cand := best
			cand.Ops = append([]Op{}, best.Ops...)
			cand.Ops[i].Delay = best.Ops[i].Delay / 2
			if !attempt(cand) {
				break
			}
			best = cand
		}
	}
	for best.Quiesce >= 2*time.Second {
		cand := best
		cand.Quiesce = best.Quiesce / 2
		if !attempt(cand) {
			break
		}
		best = cand
	}

	return best
}

// refsNode reports whether the schedule's fault, servers or any operation
// involves node p.
func refsNode(s Schedule, p ids.ProcessID) bool {
	if s.Fault.Drop > 0 && s.Fault.Node == p {
		return true
	}
	for _, srv := range s.Servers() {
		if srv == p {
			return true
		}
	}
	for _, o := range s.Ops {
		switch o.Kind {
		case OpJoin, OpLeave, OpSend, OpCrash:
			if o.P == p {
				return true
			}
		}
	}
	return false
}

// Reproducer renders a failing schedule as a replay recipe: the encoded
// schedule plus the commands that re-run it on the clock it failed on.
// The seed-sweep hint, with the fault spec it needs, only applies to
// seeded random schedules; an enumerated (or shrunk enumerated) schedule
// cannot be regenerated from a seed, so its origin line is printed
// instead.
func Reproducer(s Schedule, c Clock) string {
	mode := ""
	if c.rt != nil {
		mode = "-rtnet "
	}
	out := fmt.Sprintf("%s\n# replay: go run ./cmd/lwgcheck %s-replay <this file>\n",
		Encode(s), mode)
	if s.Origin != "" {
		return out + fmt.Sprintf("# found by: go run ./cmd/lwgcheck -%s\n", s.Origin)
	}
	hint := fmt.Sprintf("# or:     go run ./cmd/lwgcheck %s-seeds 1 -start %d -nodes %d -ops %d",
		mode, s.Seed, s.Nodes, len(s.Ops))
	if s.Faults != "" || c.rt != nil {
		// -rtnet alone means lwgcheck's default faults, not a clean run.
		hint += fmt.Sprintf(" -faults '%s'", s.Faults)
	}
	return out + hint + "\n"
}
