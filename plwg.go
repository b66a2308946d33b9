// Package plwg is a partitionable light-weight group service: an
// implementation of Rodrigues and Guo, "Partitionable Light-Weight
// Groups" (ICDCS 2000).
//
// Many distributed applications organize processes into large numbers of
// virtually synchronous groups with overlapping membership. Running the
// full virtual-synchrony machinery (failure detection, flush, agreement)
// per group is wasteful; a light-weight group (LWG) service multiplexes
// many user-level groups onto a small pool of heavy-weight groups (HWGs)
// that carry the expensive protocols. This package adds what the paper
// contributes: correct operation across network partitions, including
// reconciliation of the mapping decisions that concurrent partitions
// inevitably make differently.
//
// The library is built around a deterministic discrete-event simulation
// of the paper's testbed (a shared 10 Mbps Ethernet segment), so
// experiments are exactly reproducible. The full protocol stack —
// virtual synchrony, naming service, LWG service — is real protocol code
// exchanging messages through the simulated network.
//
// # Quick start
//
//	cluster, _ := plwg.NewCluster(plwg.Config{Nodes: 4, NameServers: []int{0}})
//	p1 := cluster.Process(1)
//	p2 := cluster.Process(2)
//	g1, _ := p1.Join("chat")
//	g2, _ := p2.Join("chat")
//	g2.OnData(func(src plwg.ProcessID, data []byte) {
//	    fmt.Printf("%v says %s\n", src, data)
//	})
//	cluster.Run(3 * time.Second) // let membership converge
//	g1.Send([]byte("hello"))
//	cluster.Run(time.Second)
//
// Partitions are injected with Cluster.Partition and healed with
// Cluster.Heal; the service reconciles mappings and merges concurrent
// views automatically.
package plwg

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"plwg/internal/cluster"
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/trace"
)

// Re-exported identifier and view types. A View is a group membership
// snapshot identified by (coordinator, sequence-number).
type (
	// ProcessID identifies a process (one per cluster node).
	ProcessID = ids.ProcessID
	// GroupName names a light-weight group.
	GroupName = ids.LWGID
	// HWGID identifies a heavy-weight group.
	HWGID = ids.HWGID
	// View is a group membership snapshot.
	View = ids.View
	// ViewID identifies a view.
	ViewID = ids.ViewID
)

// Config configures a Cluster.
type Config struct {
	// Nodes is the number of simulated nodes (one process each).
	Nodes int
	// NameServers lists the node indices hosting naming-service
	// replicas. Place one per prospective partition. Defaults to {0}.
	NameServers []int
	// Seed drives the deterministic random source. Runs with equal
	// seeds and inputs are bit-identical.
	Seed int64
	// Net overrides the network model (zero fields take the 10 Mbps
	// shared-Ethernet defaults).
	Net netsim.Params
	// Service overrides the LWG service timers and Figure 1 policy
	// parameters.
	Service core.Config
	// Naming overrides the naming-service mapping lease.
	Naming naming.Config
	// CollectTrace enables in-memory protocol tracing (see
	// Cluster.Trace).
	CollectTrace bool
}

// Cluster is a simulated cluster running the full protocol stack. All
// methods must be called from one goroutine; time only advances inside
// Run/RunUntil.
type Cluster struct {
	w      *cluster.Cluster
	procs  []*Process
	tracer *trace.Recorder
}

// Process is one node's light-weight group service instance.
type Process struct {
	cluster *Cluster
	pid     ProcessID
	ep      *core.Endpoint
	groups  map[GroupName]*Group
}

// Group is a process's handle on one light-weight group.
type Group struct {
	p        *Process
	name     GroupName
	onData   func(src ProcessID, data []byte)
	onView   func(view View)
	onState  func(state []byte)
	provider func() []byte
	left     bool
}

// upcallRouter routes core upcalls to Group handlers.
type upcallRouter Process

var _ core.Upcalls = (*upcallRouter)(nil)

// View implements core.Upcalls.
func (r *upcallRouter) View(lwg GroupName, view View) {
	p := (*Process)(r)
	if g, ok := p.groups[lwg]; ok && g.onView != nil {
		g.onView(view)
	}
}

// Data implements core.Upcalls.
func (r *upcallRouter) Data(lwg GroupName, src ProcessID, data []byte) {
	p := (*Process)(r)
	if g, ok := p.groups[lwg]; ok && g.onData != nil {
		g.onData(src, data)
	}
}

var _ core.StateHandler = (*upcallRouter)(nil)

// SnapshotState implements core.StateHandler.
func (r *upcallRouter) SnapshotState(lwg GroupName) []byte {
	p := (*Process)(r)
	if g, ok := p.groups[lwg]; ok && g.provider != nil {
		return g.provider()
	}
	return nil
}

// InstallState implements core.StateHandler.
func (r *upcallRouter) InstallState(lwg GroupName, state []byte) {
	p := (*Process)(r)
	if g, ok := p.groups[lwg]; ok && g.onState != nil {
		g.onState(state)
	}
}

// NewCluster builds a cluster of Config.Nodes processes with naming
// servers on the configured nodes.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("plwg: Config.Nodes must be positive")
	}
	serverIdx := cfg.NameServers
	if len(serverIdx) == 0 {
		serverIdx = []int{0}
	}
	serverPids := make([]ProcessID, len(serverIdx))
	for i, n := range serverIdx {
		if n < 0 || n >= cfg.Nodes {
			return nil, fmt.Errorf("plwg: name server index %d out of range", n)
		}
		if slices.Contains(serverIdx[:i], n) {
			return nil, fmt.Errorf("plwg: name server index %d listed twice", n)
		}
		serverPids[i] = ProcessID(n)
	}

	c := &Cluster{}
	var tr trace.Tracer
	if cfg.CollectTrace {
		c.tracer = &trace.Recorder{}
		tr = c.tracer
	}
	c.w = cluster.New(cluster.Config{
		Nodes: cfg.Nodes,
		Seed:  cfg.Seed,
		Net:   cfg.Net,
		Endpoint: core.Params{
			Servers: serverPids,
			Config:  cfg.Service,
			Tracer:  tr,
		},
		Naming: cfg.Naming,
		Upcalls: func(pid ProcessID) core.Upcalls {
			p := &Process{cluster: c, pid: pid, groups: make(map[GroupName]*Group)}
			c.procs = append(c.procs, p)
			return (*upcallRouter)(p)
		},
	})
	for i, p := range c.procs {
		p.ep = c.w.Endpoints[i]
	}
	return c, nil
}

// Process returns the process on node i.
func (c *Cluster) Process(i int) *Process {
	if i < 0 || i >= len(c.procs) {
		return nil
	}
	return c.procs[i]
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.procs) }

// Run advances virtual time by d, executing all protocol activity due in
// that window.
func (c *Cluster) Run(d time.Duration) { c.w.Sim.RunFor(d) }

// RunUntil advances time in steps until pred returns true or max virtual
// time has passed, and reports whether pred held.
func (c *Cluster) RunUntil(pred func() bool, step, max time.Duration) bool {
	deadline := c.w.Sim.Now().Add(max)
	for !pred() {
		if c.w.Sim.Now() >= deadline {
			return false
		}
		c.w.Sim.RunFor(step)
	}
	return true
}

// Now returns the elapsed virtual time.
func (c *Cluster) Now() time.Duration { return c.w.Sim.Now().Duration() }

// Partition splits the network into the given components (node indices).
// Unlisted nodes form an implicit extra component.
func (c *Cluster) Partition(components ...[]int) {
	groups := make([][]netsim.NodeID, len(components))
	for i, comp := range components {
		for _, n := range comp {
			groups[i] = append(groups[i], ProcessID(n))
		}
	}
	c.w.Net.SetPartitions(groups...)
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.w.Net.Heal() }

// Crash permanently crashes node i.
func (c *Cluster) Crash(i int) { c.w.Net.Crash(ProcessID(i)) }

// NetStats returns the network traffic counters.
func (c *Cluster) NetStats() netsim.Stats { return c.w.Net.Stats() }

// ResetNetStats zeroes the network traffic counters.
func (c *Cluster) ResetNetStats() { c.w.Net.ResetStats() }

// Trace returns the protocol trace recorder (nil unless
// Config.CollectTrace was set).
func (c *Cluster) Trace() *trace.Recorder { return c.tracer }

// NamingDump renders each naming server's database in the style of the
// paper's Tables 3 and 4.
func (c *Cluster) NamingDump() string {
	var b strings.Builder
	for _, p := range c.procs {
		if srv, ok := c.w.Servers[p.pid]; ok {
			fmt.Fprintf(&b, "server %v:\n%s", p.pid, indent(srv.DB().Dump()))
		}
	}
	return b.String()
}

func indent(s string) string {
	if s == "" {
		return "  (empty)\n"
	}
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

// --- Process ---------------------------------------------------------------

// PID returns the process identifier.
func (p *Process) PID() ProcessID { return p.pid }

// Join joins (or creates) the named light-weight group and returns the
// group handle. Register handlers on the handle before advancing time.
func (p *Process) Join(name GroupName) (*Group, error) {
	if _, ok := p.groups[name]; ok {
		return nil, core.ErrAlreadyMember
	}
	if err := p.ep.Join(name); err != nil {
		return nil, err
	}
	g := &Group{p: p, name: name}
	p.groups[name] = g
	return g, nil
}

// Groups returns the names of the groups the process is a member of.
func (p *Process) Groups() []GroupName { return p.ep.LWGs() }

// Mapping returns the heavy-weight group the named group is currently
// mapped on at this process.
func (p *Process) Mapping(name GroupName) (HWGID, bool) { return p.ep.Mapping(name) }

// HWGs returns the heavy-weight groups the process belongs to.
func (p *Process) HWGs() []HWGID { return p.ep.HWGs() }

// RunPolicyNow triggers one immediate pass of the mapping heuristics
// (they also run on Config.Service.PolicyInterval).
func (p *Process) RunPolicyNow() { p.ep.RunPolicyNow() }

// --- Group -------------------------------------------------------------------

// Name returns the group's name.
func (g *Group) Name() GroupName { return g.name }

// OnData registers the delivery handler. Handlers run on the simulation
// goroutine.
func (g *Group) OnData(fn func(src ProcessID, data []byte)) { g.onData = fn }

// OnView registers the view-change handler.
func (g *Group) OnView(fn func(view View)) { g.onView = fn }

// StateProvider registers the snapshot function used to transfer this
// group's application state to joining members (called at the admitting
// coordinator; a nil result transfers nothing).
func (g *Group) StateProvider(fn func() []byte) { g.provider = fn }

// OnState registers the handler receiving a state snapshot when this
// process joins an existing group; it runs before the first View upcall.
func (g *Group) OnState(fn func(state []byte)) { g.onState = fn }

// Send multicasts data to the group with view-synchronous semantics.
func (g *Group) Send(data []byte) error {
	if g.left {
		return core.ErrNotMember
	}
	return g.p.ep.Send(g.name, data)
}

// View returns the current view, if one is installed.
func (g *Group) View() (View, bool) { return g.p.ep.LWGView(g.name) }

// Leave leaves the group.
func (g *Group) Leave() error {
	if g.left {
		return core.ErrNotMember
	}
	g.left = true
	delete(g.p.groups, g.name)
	return g.p.ep.Leave(g.name)
}
