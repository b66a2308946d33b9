package explore

import (
	"fmt"
	"time"

	"plwg/internal/check"
	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/rtnet"
	"plwg/internal/trace"
)

// The loopback clock: the same chaos schedules, through the same
// interpreter (apply) as the simulator, but driven against live rtnet
// Nodes talking real UDP on the loopback, with the transport taking the
// schedule's fault spec and partitions as link Block rules. Runs are NOT
// deterministic — the kernel scheduler and the real clock interleave
// frames — but the fault decisions themselves are seeded per node, and a
// schedule that fails here is still replayable: the reproducer embeds the
// fault spec (Schedule.Faults) and `lwgcheck -rtnet -replay` re-runs it.

// RTOptions configures real-network schedule execution.
type RTOptions struct {
	// Scale converts the schedule's virtual-time delays to real sleeps
	// (default 0.1: a 500ms virtual gap becomes a 50ms real one).
	Scale float64
	// Quiesce overrides the real-time convergence window (default: the
	// scaled schedule quiescence, floored at 8s so mapping leases orphaned
	// by crashes have time to expire).
	Quiesce time.Duration
}

func (o RTOptions) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.Scale)
}

// staticProc is a point-in-time copy of one endpoint's checkable state,
// taken on the node's protocol loop before shutdown so the checker can
// read it without racing live protocol goroutines.
type staticProc struct {
	lwgs  []ids.LWGID
	views map[ids.LWGID]ids.View
	maps  map[ids.LWGID]ids.HWGID
}

var _ check.Process = (*staticProc)(nil)

func (p *staticProc) LWGs() []ids.LWGID { return p.lwgs }

func (p *staticProc) LWGView(l ids.LWGID) (ids.View, bool) {
	v, ok := p.views[l]
	return v, ok
}

func (p *staticProc) Mapping(l ids.LWGID) (ids.HWGID, bool) {
	h, ok := p.maps[l]
	return h, ok
}

func snapshotProc(n *rtnet.Node) *staticProc {
	sp := &staticProc{
		views: make(map[ids.LWGID]ids.View),
		maps:  make(map[ids.LWGID]ids.HWGID),
	}
	n.Do(func(ep *core.Endpoint) {
		for _, l := range ep.LWGs() {
			sp.lwgs = append(sp.lwgs, l)
			if v, ok := ep.LWGView(l); ok {
				sp.views[l] = v
			}
			if h, ok := ep.Mapping(l); ok {
				sp.maps[l] = h
			}
		}
	})
	return sp
}

// blockRule is the shared one-way partition rule; rules are read-only once
// installed, so aliasing one value across links is safe.
var blockRule = &faults.Rule{Block: true}

// rtCluster is the loopback backend: one rtnet Node per process, each
// installing the schedule's fault spec on its outgoing links. Partitions
// become asymmetric Block rules: the cut index picks the direction
// (cut%3 == 0 blocks both ways, 1 blocks only low→high, 2 blocks only
// high→low), so every sweep exercises one-way partitions — the failure
// mode a simulated symmetric SetPartitions can never produce.
type rtCluster struct {
	intent
	o     RTOptions
	base  *faults.Spec
	rec   *trace.SyncRecorder
	nodes []*rtnet.Node
}

func newRTCluster(s Schedule, o RTOptions) (*rtCluster, error) {
	base, err := faults.Parse(s.Faults)
	if err != nil {
		return nil, err
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	c := &rtCluster{intent: newIntent(s), o: o, base: base, rec: &trace.SyncRecorder{}}
	svcCfg := core.DefaultConfig()
	svcCfg.PolicyInterval = time.Hour // policy runs only via OpPolicy
	// Short mapping leases so mappings orphaned by crashed views expire
	// within the real-time quiescence window.
	svcCfg.MappingRefreshInterval = time.Second
	nsCfg := naming.Config{MappingTTL: 3 * time.Second}

	addrs := make(map[ids.ProcessID]string, s.Nodes)
	for i := 0; i < s.Nodes; i++ {
		n, err := rtnet.Listen(rtnet.NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: s.Servers(),
			Service:     svcCfg,
			Naming:      nsCfg,
			Tracer:      c.rec,
			Seed:        s.Seed*1009 + int64(i),
		})
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("rtnet node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		addrs[ids.ProcessID(i)] = n.Addr().String()
	}
	for i, n := range c.nodes {
		if err := n.SetPeers(addrs); err != nil {
			c.closeAll()
			return nil, err
		}
		n.SetFaults(base)
		if err := n.Start(); err != nil {
			c.closeAll()
			return nil, fmt.Errorf("rtnet node %d start: %w", i, err)
		}
	}
	return c, nil
}

func (c *rtCluster) closeAll() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// heal puts every live node back on the schedule's fault spec, dropping
// any partition's link rules.
func (c *rtCluster) heal() {
	for _, p := range c.live() {
		c.nodes[p].SetFaults(c.base)
	}
}

// The op effects apply performs on the loopback cluster, each run on the
// node's protocol loop.

func (c *rtCluster) join(p ids.ProcessID, l ids.LWGID) error {
	var err error
	c.nodes[p].Do(func(ep *core.Endpoint) { err = ep.Join(l) })
	return err
}

func (c *rtCluster) leave(p ids.ProcessID, l ids.LWGID) {
	c.nodes[p].Do(func(ep *core.Endpoint) { _ = ep.Leave(l) })
}

func (c *rtCluster) send(p ids.ProcessID, l ids.LWGID, payload []byte) {
	c.nodes[p].Do(func(ep *core.Endpoint) { _ = ep.Send(l, payload) })
}

// part replaces (not stacks) any previous partition, matching the
// simulated SetPartitions semantics.
func (c *rtCluster) part(cut int) {
	c.heal()
	dir := cut % 3
	live := c.live()
	for _, a := range live {
		for _, b := range live {
			lowHigh := int(a) < cut && int(b) >= cut
			highLow := int(a) >= cut && int(b) < cut
			if (lowHigh && dir != 2) || (highLow && dir != 1) {
				c.nodes[a].SetLinkFault(b, blockRule)
			}
		}
	}
}

func (c *rtCluster) crash(p ids.ProcessID) { c.nodes[p].Close() }

func (c *rtCluster) policy(p ids.ProcessID) {
	c.nodes[p].Do(func(ep *core.Endpoint) { ep.RunPolicyNow() })
}

func (c *rtCluster) advance(d time.Duration) bool {
	time.Sleep(c.o.scale(d))
	return true
}

// finish heals every partition but keeps the base faults for a stress
// window, then runs the tail fault-free so reconciliation, anti-entropy
// and lease expiry can finish on a clean network (the real-time
// equivalent of the simulated runner's final heal), checks, and closes
// the cluster.
func (c *rtCluster) finish() Result {
	quiesce := c.o.Quiesce
	if quiesce <= 0 {
		quiesce = c.o.scale(c.sched.Quiesce)
		if quiesce < 8*time.Second {
			quiesce = 8 * time.Second
		}
	}
	stress := 2 * time.Second
	if stress > quiesce/2 {
		stress = quiesce / 2
	}
	c.heal()
	time.Sleep(stress)
	for _, p := range c.live() {
		c.nodes[p].SetFaults(nil)
	}
	time.Sleep(quiesce - stress)

	// The fixed window above is the minimum: if the checks already pass,
	// the run is done. If not, poll within a bounded grace period before
	// declaring failure. Wall-clock sleeps measure elapsed time, not
	// protocol progress — under CPU contention (parallel sweeps on few
	// cores) a correctly converging cluster can overrun the window while
	// its goroutines are starved, and checking the snapshot once at the
	// bell turns scheduler noise into flaky failures. A real wedge still
	// fails: it stays wedged past the grace deadline too.
	world := c.checkWorld()
	violations := check.Run(world)
	for deadline := time.Now().Add(quiesce); len(violations) > 0 && time.Now().Before(deadline); {
		time.Sleep(500 * time.Millisecond)
		world = c.checkWorld()
		violations = check.Run(world)
	}
	c.closeAll()
	return Result{Completed: true, World: world, Violations: violations}
}

// checkWorld snapshots the live nodes for the invariant checker.
func (c *rtCluster) checkWorld() *check.World {
	procs := make(map[ids.ProcessID]check.Process)
	dbs := make(map[ids.ProcessID]*naming.DB)
	for _, p := range c.live() {
		procs[p] = snapshotProc(c.nodes[p])
		if db := c.nodes[p].NamingDBSnapshot(); db != nil {
			dbs[p] = db
		}
	}
	return c.checked(c.rec.Snapshot(), procs, dbs)
}
