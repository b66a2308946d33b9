package explore

import (
	"fmt"
	"sort"
	"time"

	"plwg/internal/check"
	"plwg/internal/cluster"
	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/trace"
)

// world is one live instance of the full stack — endpoints, virtual
// synchrony substrate, naming servers, simulated network — set up for a
// schedule's scope. Run drives a whole schedule through it in one call;
// the enumerator (Enumerate) steps it operation by operation, reads a
// state digest between steps, and probes liveness by finishing early.
//
// A world is single-use: after finish() the quiescence window has been
// consumed and no further operations may be applied.
type world struct {
	*cluster.Cluster
	sched  Schedule
	tracer *trace.Recorder

	// memberOf is the intended membership: the joins minus the leaves
	// and crashes the schedule performed (the checker's Expected set).
	memberOf map[ids.LWGID]map[ids.ProcessID]bool
	crashed  map[ids.ProcessID]bool
	// cut is the currently applied partition split (0 = healed).
	cut int

	msgID     int
	completed bool

	// lwgList and serverList are the deterministic scan orders (groups
	// sorted, servers ascending) cached at construction; digest and
	// enabledOps walk them on every call.
	lwgList    []ids.LWGID
	serverList []ids.ProcessID
	// dbuf and dcanon are digest scratch state, reused across calls.
	dbuf   []byte
	dcanon canon
}

// newWorld builds the stack for the schedule's scope (nodes, groups,
// server placement) and installs its fault spec, without applying any
// operations. The spec stays in force through quiescence.
func newWorld(s Schedule) *world {
	w := &world{
		sched:     s,
		tracer:    &trace.Recorder{},
		memberOf:  make(map[ids.LWGID]map[ids.ProcessID]bool),
		crashed:   make(map[ids.ProcessID]bool),
		completed: true,
	}
	cfg := core.DefaultConfig()
	cfg.PolicyInterval = time.Hour // policy runs only via OpPolicy
	// Short mapping leases so mappings orphaned by crashed views expire
	// within the quiescence window (genealogy GC cannot collect them).
	cfg.MappingRefreshInterval = 2 * time.Second
	w.Cluster = cluster.New(cluster.Config{
		Nodes:    s.Nodes,
		Seed:     s.Seed,
		Net:      netsim.DefaultParams(),
		Endpoint: core.Params{Servers: s.Servers(), Config: cfg, Tracer: w.tracer},
		Naming:   naming.Config{MappingTTL: 8 * time.Second},
	})
	if s.Faults != "" {
		fs, err := faults.Parse(s.Faults)
		if err != nil {
			panic(fmt.Sprintf("explore: schedule fault spec %q: %v", s.Faults, err))
		}
		w.Net.SetFaults(fs)
	}
	for _, l := range s.LWGs {
		w.memberOf[l] = make(map[ids.ProcessID]bool)
	}
	w.lwgList = append([]ids.LWGID(nil), s.LWGs...)
	sort.Slice(w.lwgList, func(i, j int) bool { return w.lwgList[i] < w.lwgList[j] })
	w.serverList = sortedServerPids(w.Servers)
	return w
}

// ep returns p's endpoint, nil when p is outside the world.
func (w *world) ep(p ids.ProcessID) *core.Endpoint {
	if p >= 0 && int(p) < len(w.Endpoints) {
		return w.Endpoints[p]
	}
	return nil
}

// advance runs the simulation for d of virtual time under the global step
// budget; on budget exhaustion the world is marked incomplete (livelock).
func (w *world) advance(d time.Duration) {
	if !w.completed {
		return
	}
	if !w.Sim.RunForCapped(d, maxSteps-w.Sim.Steps()) {
		w.completed = false
	}
}

// known reports whether the schedule declared the group.
func (w *world) known(l ids.LWGID) bool { return w.memberOf[l] != nil }

// apply performs one operation (after its Delay has been advanced).
// Inapplicable operations degrade to no-ops, exactly as documented on Op.
func (w *world) apply(op Op) {
	s := w.sched
	switch op.Kind {
	case OpJoin:
		if ep := w.ep(op.P); ep != nil && w.known(op.LWG) && !w.crashed[op.P] && !w.memberOf[op.LWG][op.P] {
			if err := ep.Join(op.LWG); err == nil {
				w.memberOf[op.LWG][op.P] = true
			}
		}
	case OpLeave:
		if ep := w.ep(op.P); ep != nil && w.known(op.LWG) && !w.crashed[op.P] && w.memberOf[op.LWG][op.P] {
			_ = ep.Leave(op.LWG)
			delete(w.memberOf[op.LWG], op.P)
		}
	case OpSend:
		if ep := w.ep(op.P); ep != nil && w.known(op.LWG) && !w.crashed[op.P] && w.memberOf[op.LWG][op.P] {
			w.msgID++
			_ = ep.Send(op.LWG, []byte(fmt.Sprintf("m%d", w.msgID)))
		}
	case OpPart:
		if op.Cut > 0 && op.Cut < s.Nodes {
			var a, b []netsim.NodeID
			for i := 0; i < s.Nodes; i++ {
				if i < op.Cut {
					a = append(a, ids.ProcessID(i))
				} else {
					b = append(b, ids.ProcessID(i))
				}
			}
			w.Net.SetPartitions(a, b)
			w.cut = op.Cut
		}
	case OpHeal:
		w.Net.Heal()
		w.cut = 0
	case OpCrash:
		if int(op.P) < s.Nodes && w.Servers[op.P] == nil && !w.crashed[op.P] {
			w.Net.Crash(op.P)
			w.crashed[op.P] = true
			for _, l := range s.LWGs {
				delete(w.memberOf[l], op.P)
			}
		}
	case OpPolicy:
		// Process order, so message emission is deterministic.
		for i := 0; i < s.Nodes; i++ {
			if p := ids.ProcessID(i); !w.crashed[p] {
				w.Endpoints[p].RunPolicyNow()
			}
		}
	case OpWait:
		// No action: the op's Delay already passed before apply.
	}
}

// checkWorld snapshots the world for the invariant checker.
func (w *world) checkWorld() *check.World {
	procs := make(map[ids.ProcessID]check.Process, len(w.Endpoints))
	for i, ep := range w.Endpoints {
		procs[ids.ProcessID(i)] = ep
	}
	dbs := make(map[ids.ProcessID]*naming.DB, len(w.Servers))
	for p, srv := range w.Servers {
		dbs[p] = srv.DB()
	}
	return &check.World{
		Events:   injectFault(w.tracer.Events, w.sched.Fault),
		Procs:    procs,
		Servers:  dbs,
		Expected: expectedMembers(w.memberOf),
		Crashed:  w.crashed,
	}
}

// heal removes every partition without advancing time. On an
// already-healed world it is a pure no-op (the simulated network holds no
// per-heal state), which is what lets the enumerator treat a healed
// state's liveness-probe trajectory as that state's own settle timeline
// (engine.go).
func (w *world) heal() {
	w.Net.Heal()
	w.cut = 0
}

// checksNow snapshots the world and runs every safety check against the
// current instant. check.Run only reads the snapshot, but the trace keeps
// growing if the world advances afterwards, so callers treat this as the
// world's final act.
func (w *world) checksNow() Result {
	res := Result{Completed: w.completed, World: w.checkWorld()}
	if w.completed {
		res.Violations = check.Run(res.World)
	}
	return res
}

// finish heals every partition, lets reconciliation converge for the
// schedule's quiescence window, and runs every safety check. The world
// must not be used afterwards.
func (w *world) finish() Result {
	if w.completed {
		w.heal()
		w.advance(w.sched.Quiesce)
	}
	return w.checksNow()
}
