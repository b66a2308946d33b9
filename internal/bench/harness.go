// Package bench is the experiment harness reproducing the paper's
// evaluation (Section 3.3, Figure 2, Tables 3–4). It builds the three
// compared configurations —
//
//   - no LWG service: each user group is one virtually synchronous
//     (heavy-weight) group of its own;
//   - static LWG service: every user group is a light-weight group mapped
//     onto one heavy-weight group containing all processes;
//   - dynamic LWG service: the full service of this repository, which
//     maps each set of identical-membership groups onto its own
//     heavy-weight group;
//
// — drives identical workloads through them, and measures data-transfer
// latency, throughput and crash-recovery time on the simulated 10 Mbps
// shared Ethernet.
package bench

import (
	"encoding/binary"
	"time"

	"plwg/internal/cluster"
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
	"plwg/internal/vsync"
	"plwg/internal/workload"
)

// Mode selects the configuration under test.
type Mode int

const (
	// NoLWG: one heavy-weight group per user group.
	NoLWG Mode = iota + 1
	// StaticLWG: all user groups mapped statically onto one heavy-weight
	// group spanning every process.
	StaticLWG
	// DynamicLWG: the paper's dynamic light-weight group service.
	DynamicLWG
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoLWG:
		return "no-lwg"
	case StaticLWG:
		return "static-lwg"
	case DynamicLWG:
		return "dynamic-lwg"
	default:
		return "unknown"
	}
}

// Modes lists the three configurations in the paper's order.
var Modes = []Mode{NoLWG, StaticLWG, DynamicLWG}

// staticHWG is the pre-seeded heavy-weight group of the static
// configuration.
const staticHWG ids.HWGID = 1 << 20

// Harness hosts one configuration over one topology.
type Harness struct {
	Mode Mode
	Topo workload.Topology
	S    *sim.Sim
	NW   *netsim.Network

	// Dynamic/static configurations, indexed by pid.
	eps []*core.Endpoint
	// NoLWG configuration.
	stacks map[ids.ProcessID]*vsync.Stack

	// groupIdx maps a LWG name (or NoLWG group id) to the topology
	// index.
	groupIdx map[ids.LWGID]int

	// Message bookkeeping for latency measurements.
	sentAt  map[uint64]sim.Time
	nextMsg uint64

	// onDeliver, when set, observes every delivery.
	onDeliver func(gi int, member, src ids.ProcessID, id uint64, size int)

	opts Options

	tickers []stopper
}

// stopper is anything the harness can cancel at StopTraffic.
type stopper interface{ Stop() }

// benchPayload is the NoLWG-mode payload.
type benchPayload struct {
	ID   uint64
	Size int
}

// WireSize implements vsync.Payload.
func (p benchPayload) WireSize() int { return p.Size }

// Options are optional harness instrumentation for the observability
// records.
type Options struct {
	// Tracer records protocol events from every layer of every process,
	// the naming server's included (a *trace.Recorder for analysis runs,
	// a *trace.Ring for overhead-representative ones).
	Tracer trace.Tracer
	// Metrics receives instrumentation from every simulated process
	// (the registry is shared across the cluster, so counters aggregate
	// cluster-wide); nil disables it.
	Metrics *metrics.Registry
}

// NewHarness builds the configuration over the topology. Call Setup to
// join all groups and wait for convergence.
func NewHarness(mode Mode, topo workload.Topology, seed int64) *Harness {
	return NewHarnessWith(mode, topo, seed, Options{})
}

// NewHarnessWith is NewHarness with instrumentation.
func NewHarnessWith(mode Mode, topo workload.Topology, seed int64, opts Options) *Harness {
	h := &Harness{
		Mode:     mode,
		Topo:     topo,
		groupIdx: make(map[ids.LWGID]int),
		sentAt:   make(map[uint64]sim.Time),
		opts:     opts,
	}
	for i, g := range topo.Groups {
		h.groupIdx[g.Name] = i
	}
	switch mode {
	case NoLWG:
		h.buildNoLWG(seed)
	case StaticLWG, DynamicLWG:
		h.buildLWG(seed, mode == StaticLWG)
	}
	return h
}

// gidOf maps a topology group index to its NoLWG heavy-weight group id.
func gidOf(gi int) ids.HWGID { return ids.HWGID(gi + 1) }

// buildNoLWG wires bare vsync stacks, one per process: the HWG-only
// baseline has no LWG endpoint or naming service, so package cluster
// does not build it.
func (h *Harness) buildNoLWG(seed int64) {
	h.S = sim.New(seed)
	h.NW = netsim.New(h.S, netsim.DefaultParams())
	h.stacks = make(map[ids.ProcessID]*vsync.Stack)
	for i := 0; i < h.Topo.Procs; i++ {
		pid := ids.ProcessID(i)
		up := &noLWGUpcalls{h: h, pid: pid}
		st := vsync.NewStack(vsync.Params{
			Net: h.NW, PID: pid, Upcalls: up, Tracer: h.opts.Tracer,
			Metrics: h.opts.Metrics,
		})
		mux := netsim.NewMux()
		mux.Handle(vsync.AddrPrefix, st.HandleMessage)
		h.NW.AddNode(pid, mux.Handler())
		h.stacks[pid] = st
	}
}

// noLWGUpcalls records deliveries for the NoLWG configuration.
type noLWGUpcalls struct {
	h   *Harness
	pid ids.ProcessID
}

func (u *noLWGUpcalls) View(ids.HWGID, ids.View) {}

func (u *noLWGUpcalls) Data(gid ids.HWGID, src ids.ProcessID, payload vsync.Payload) {
	p, ok := payload.(benchPayload)
	if !ok {
		return
	}
	if u.h.onDeliver != nil {
		u.h.onDeliver(int(gid)-1, u.pid, src, p.ID, p.Size)
	}
}

// Stop acknowledges at once: the bare groups have nothing to quiesce.
func (u *noLWGUpcalls) Stop(gid ids.HWGID) { _ = u.h.stacks[u.pid].StopOk(gid) }

func (h *Harness) buildLWG(seed int64, static bool) {
	svcCfg := core.DefaultConfig()
	if static {
		svcCfg.PolicyInterval = 24 * time.Hour // mapping is frozen
	} else {
		svcCfg.PolicyInterval = 10 * time.Second
	}
	c := cluster.New(cluster.Config{
		Nodes: h.Topo.Procs,
		Seed:  seed,
		Net:   netsim.DefaultParams(),
		Endpoint: core.Params{
			Servers: []ids.ProcessID{0},
			Config:  svcCfg,
			Tracer:  h.opts.Tracer,
			Metrics: h.opts.Metrics,
		},
		Upcalls: func(pid ids.ProcessID) core.Upcalls { return &lwgUpcalls{h: h, pid: pid} },
	})
	h.S, h.NW, h.eps = c.Sim, c.Net, c.Endpoints
	if static {
		// Pre-seed the static mapping: every user group onto the one
		// shared heavy-weight group.
		for i, g := range h.Topo.Groups {
			for _, srv := range c.Servers {
				srv.DB().Put(naming.Entry{
					LWG:  g.Name,
					View: ids.ViewID{Coord: 0, Seq: uint64(i) + 1},
					HWG:  staticHWG,
					Ver:  1,
					// The static mapping is configuration, not a lease:
					// it never expires.
					Refreshed: int64(^uint64(0) >> 2),
				})
			}
		}
	}
}

// lwgUpcalls records deliveries for the LWG configurations.
type lwgUpcalls struct {
	h   *Harness
	pid ids.ProcessID
}

func (u *lwgUpcalls) View(ids.LWGID, ids.View) {}

func (u *lwgUpcalls) Data(lwg ids.LWGID, src ids.ProcessID, data []byte) {
	gi, ok := u.h.groupIdx[lwg]
	if !ok || len(data) < 8 {
		return
	}
	id := binary.BigEndian.Uint64(data)
	if u.h.onDeliver != nil {
		u.h.onDeliver(gi, u.pid, src, id, len(data))
	}
}

// Setup joins every process into its groups (staggered, as a real
// deployment would) and runs until every group's view matches its
// intended membership. It reports whether convergence was reached within
// maxWait of virtual time.
func (h *Harness) Setup(maxWait time.Duration) bool {
	for gi, g := range h.Topo.Groups {
		gi, g := gi, g
		// The first member creates the group; the rest join shortly
		// after, so creation-time mappings see the existing groups.
		base := time.Duration(gi) * 20 * time.Millisecond
		h.S.After(base, func() { h.join(gi, g.Members[0]) })
		for mi, p := range g.Members[1:] {
			p := p
			h.S.After(base+500*time.Millisecond+time.Duration(mi)*5*time.Millisecond,
				func() { h.join(gi, p) })
		}
	}
	deadline := h.S.Now().Add(maxWait)
	for !h.Converged() {
		if h.S.Now() >= deadline {
			return false
		}
		h.S.RunFor(100 * time.Millisecond)
	}
	// Let stability traffic settle.
	h.S.RunFor(500 * time.Millisecond)
	return true
}

func (h *Harness) join(gi int, p ids.ProcessID) {
	switch h.Mode {
	case NoLWG:
		_ = h.stacks[p].Join(gidOf(gi))
	default:
		_ = h.eps[p].Join(h.Topo.Groups[gi].Name)
	}
}

// GroupView returns the member's current view of the group.
func (h *Harness) GroupView(gi int, p ids.ProcessID) (ids.View, bool) {
	switch h.Mode {
	case NoLWG:
		return h.stacks[p].CurrentView(gidOf(gi))
	default:
		return h.eps[p].LWGView(h.Topo.Groups[gi].Name)
	}
}

// Converged reports whether every group's every member sees exactly the
// intended membership.
func (h *Harness) Converged() bool {
	for gi, g := range h.Topo.Groups {
		for _, p := range g.Members {
			v, ok := h.GroupView(gi, p)
			if !ok || !v.Members.Equal(g.Members) {
				return false
			}
		}
	}
	return true
}

// Send multicasts one message of the given payload size on the group and
// returns its id (recorded with the send timestamp for latency
// accounting).
func (h *Harness) Send(gi int, from ids.ProcessID, size int) uint64 {
	h.nextMsg++
	id := h.nextMsg
	h.sentAt[id] = h.S.Now()
	switch h.Mode {
	case NoLWG:
		_ = h.stacks[from].Send(gidOf(gi), benchPayload{ID: id, Size: size})
	default:
		data := make([]byte, size)
		binary.BigEndian.PutUint64(data, id)
		_ = h.eps[from].Send(h.Topo.Groups[gi].Name, data)
	}
	return id
}

// SentAt returns the send timestamp of a message id.
func (h *Harness) SentAt(id uint64) (sim.Time, bool) {
	t, ok := h.sentAt[id]
	return t, ok
}

// OnDeliver installs the global delivery observer.
func (h *Harness) OnDeliver(fn func(gi int, member, src ids.ProcessID, id uint64, size int)) {
	h.onDeliver = fn
}

// Every registers a periodic task that is stopped by StopTraffic.
func (h *Harness) Every(period time.Duration, fn func()) {
	h.tickers = append(h.tickers, h.S.Every(period, fn))
}

// Poisson registers a task firing with exponential inter-arrival times of
// the given mean (a Poisson process, like the paper's loaded-network
// traffic). Perfectly periodic senders would self-organize into a
// collision-free schedule on the deterministic bus and hide all queueing.
// Stopped by StopTraffic.
func (h *Harness) Poisson(mean time.Duration, fn func()) {
	stopped := false
	h.tickers = append(h.tickers, &poissonTask{stop: func() { stopped = true }})
	var schedule func()
	schedule = func() {
		d := time.Duration(h.S.Rand().ExpFloat64() * float64(mean))
		h.S.After(d, func() {
			if stopped {
				return
			}
			fn()
			schedule()
		})
	}
	schedule()
}

// poissonTask adapts a stop function to the ticker slice.
type poissonTask struct{ stop func() }

// Stop implements the subset of sim.Ticker the harness uses.
func (p *poissonTask) Stop() { p.stop() }

// StopTraffic cancels all periodic tasks registered with Every.
func (h *Harness) StopTraffic() {
	for _, t := range h.tickers {
		t.Stop()
	}
	h.tickers = nil
}

// RunPolicyEverywhere triggers one mapping-heuristics pass at every
// process, in process order (LWG modes only).
func (h *Harness) RunPolicyEverywhere() {
	for _, ep := range h.eps {
		ep.RunPolicyNow()
	}
}

// HWGCount returns how many distinct heavy-weight groups the
// configuration uses (a resource-sharing metric).
func (h *Harness) HWGCount() int {
	switch h.Mode {
	case NoLWG:
		return len(h.Topo.Groups)
	default:
		seen := make(map[ids.HWGID]bool)
		for _, ep := range h.eps {
			for _, g := range ep.HWGs() {
				seen[g] = true
			}
		}
		return len(seen)
	}
}

// Registry returns the cluster-wide metrics registry (nil unless
// Options.Metrics was set).
func (h *Harness) Registry() *metrics.Registry { return h.opts.Metrics }

// Metrics convenience re-export so callers need not import the package.
type Histogram = metrics.Histogram
