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
	intent
	tracer *trace.Recorder

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
		intent:    newIntent(s),
		tracer:    &trace.Recorder{},
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
	w.lwgList = append([]ids.LWGID(nil), s.LWGs...)
	sort.Slice(w.lwgList, func(i, j int) bool { return w.lwgList[i] < w.lwgList[j] })
	w.serverList = sortedServerPids(w.Servers)
	return w
}

// advance runs the simulation for d of virtual time under the global step
// budget; on budget exhaustion the world is marked incomplete (livelock).
func (w *world) advance(d time.Duration) bool {
	if w.completed && !w.Sim.RunForCapped(d, maxSteps-w.Sim.Steps()) {
		w.completed = false
	}
	return w.completed
}

// The op effects apply performs on the simulator. The clock is stopped
// between advances, so each takes effect at one virtual instant.

func (w *world) join(p ids.ProcessID, l ids.LWGID) error { return w.Endpoints[p].Join(l) }

func (w *world) leave(p ids.ProcessID, l ids.LWGID) { _ = w.Endpoints[p].Leave(l) }

func (w *world) send(p ids.ProcessID, l ids.LWGID, payload []byte) {
	_ = w.Endpoints[p].Send(l, payload)
}

// part splits the network symmetrically into {0..cut-1} | {cut..},
// replacing any previous partition.
func (w *world) part(cut int) {
	var a, b []netsim.NodeID
	for i := 0; i < w.sched.Nodes; i++ {
		if i < cut {
			a = append(a, ids.ProcessID(i))
		} else {
			b = append(b, ids.ProcessID(i))
		}
	}
	w.Net.SetPartitions(a, b)
}

func (w *world) crash(p ids.ProcessID) { w.Net.Crash(p) }

func (w *world) policy(p ids.ProcessID) { w.Endpoints[p].RunPolicyNow() }

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
	return w.checked(w.tracer.Events, procs, dbs)
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
