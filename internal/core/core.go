// Package core implements the paper's primary contribution: a
// transparent, dynamic light-weight group (LWG) service that operates in
// partitionable networks.
//
// Each process runs an Endpoint stacked on the heavy-weight group (HWG)
// substrate (internal/vsync) and a naming-service client
// (internal/naming). The endpoint:
//
//   - preserves the virtually synchronous interface for LWG users: Join,
//     Leave, Send downcalls; View and Data upcalls (Stop/StopOk are
//     handled internally, as the paper permits for upper layers);
//   - maps LWGs onto a shared pool of HWGs, creating, collapsing and
//     shrinking HWGs according to the Figure 1 heuristics;
//   - switches LWGs between HWGs at run time (the switching protocol);
//   - reconciles after partitions heal through the four steps of
//     Section 6: naming-service callbacks (global peer discovery),
//     highest-gid mapping reconciliation, HWG-local peer discovery, and
//     the MERGE-VIEWS protocol of Figure 5.
package core

import (
	"errors"
	"fmt"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/policy"
	"plwg/internal/sim"
	"plwg/internal/trace"
	"plwg/internal/vsync"
)

// Upcalls is implemented by the LWG user (the application).
type Upcalls interface {
	// View reports a new view of a light-weight group the process is a
	// member of.
	View(lwg ids.LWGID, view ids.View)
	// Data delivers a light-weight group multicast.
	Data(lwg ids.LWGID, src ids.ProcessID, data []byte)
}

// StateHandler is optionally implemented by Upcalls to transfer
// application state to joining members (the classic virtual-synchrony
// state-transfer facility). When the coordinator admits joiners, it
// snapshots the group state after the admission flush — so the snapshot
// reflects exactly the messages delivered in the old view — and the
// joiners receive it through InstallState before their first View and
// Data upcalls in the group.
//
// State transfer covers joins only. When concurrent views merge after a
// partition, every member keeps its own state: reconciling divergent
// application states is application-specific (use convergent state, or
// re-synchronize on the post-merge View upcall).
type StateHandler interface {
	// SnapshotState returns the group's application state; called at
	// the admitting coordinator. A nil return transfers nothing.
	SnapshotState(lwg ids.LWGID) []byte
	// InstallState delivers the snapshot at a joiner.
	InstallState(lwg ids.LWGID, state []byte)
}

// Errors returned by the downcalls.
var (
	ErrAlreadyMember = errors.New("core: already a member of the light-weight group")
	ErrNotMember     = errors.New("core: not a member of the light-weight group")
)

// Config holds the light-weight group service timers and policy
// parameters.
type Config struct {
	// PolicyInterval is the period of the mapping-heuristics pass. The
	// paper's prototype ran it once a minute; benchmarks shorten it.
	PolicyInterval time.Duration
	// Policy holds the Figure 1 parameters (k_m, k_c).
	Policy policy.Params
	// MappingRefreshInterval is how often a LWG view's coordinator
	// refreshes its mapping lease in the naming service. Must be well
	// below naming.Config.MappingTTL.
	MappingRefreshInterval time.Duration

	// batchMaxBytes and batchMaxDelay replace maxBatchBytes and
	// maxBatchDelay when positive. Only this package's tests set them,
	// to park a batch behind a long delay or to force size flushes.
	batchMaxBytes int
	batchMaxDelay time.Duration
}

// Timers and bounds of the light-weight group service, sized for the
// simulated testbed.
const (
	// lwgFlushTimeout bounds a LWG-level flush round.
	lwgFlushTimeout = 400 * time.Millisecond
	// joinRetryInterval is the period of LWG join request retries.
	joinRetryInterval = 200 * time.Millisecond
	// lwgJoinTimeout is how long a joiner waits for an existing LWG view
	// before forming its own.
	lwgJoinTimeout = 700 * time.Millisecond
	// switchRetryInterval re-announces switch instructions until every
	// member has re-bound.
	switchRetryInterval = 250 * time.Millisecond
	// nsRetryInterval is the retry period for naming-service operations.
	nsRetryInterval = 250 * time.Millisecond
	// shrinkAfter is how long a process tolerates membership of a HWG
	// with no local LWG mapped on it before leaving (the shrink rule).
	shrinkAfter = 2 * time.Second
	// maxPreInstall bounds the per-member buffer of data received under
	// views not yet installed (see lwgMember.bufferPreInstall). Overflow
	// sheds the oldest message, counted by core_preinstall_drops_total
	// and traced as LWGPreInstallDrop so checkers surface the gap.
	maxPreInstall = 1024
	// maxBatchBytes flushes the per-HWG send batch once the packed
	// payloads reach this size. Sends from all LWGs mapped on the same
	// HWG coalesce into one multicast, amortizing per-frame overhead
	// and per-receiver processing cost across the batch.
	maxBatchBytes = 8 * 1024
	// maxBatchDelay bounds how long a packed payload may wait in the
	// batch, and is the least spacing between two timer-driven flushes
	// on one HWG: a send is flushed at max(now, lastFlush +
	// maxBatchDelay), lastFlush being this endpoint's last data
	// multicast on the HWG. A quiet HWG therefore flushes at the end of
	// the current instant, packing only the sends made together, and a
	// busy one at most once per maxBatchDelay.
	maxBatchDelay = 500 * time.Microsecond
)

// DefaultConfig returns timers sized for the simulated testbed. The
// policy interval defaults to the paper's one minute.
func DefaultConfig() Config {
	return Config{
		PolicyInterval: time.Minute,
		Policy:         policy.DefaultParams(),

		MappingRefreshInterval: 15 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PolicyInterval <= 0 {
		c.PolicyInterval = d.PolicyInterval
	}
	if c.MappingRefreshInterval <= 0 {
		c.MappingRefreshInterval = d.MappingRefreshInterval
	}
	if c.batchMaxBytes <= 0 {
		c.batchMaxBytes = maxBatchBytes
	}
	if c.batchMaxDelay <= 0 {
		c.batchMaxDelay = maxBatchDelay
	}
	return c
}

// Params bundles the dependencies of an Endpoint.
type Params struct {
	Net netsim.Transport
	PID ids.ProcessID
	// Servers lists the naming-server nodes.
	Servers []ids.ProcessID
	Config  Config
	Upcalls Upcalls
	Tracer  trace.Tracer
	// Metrics receives the endpoint's (and the underlying stacks')
	// instrumentation; nil disables it at zero hot-path cost.
	Metrics *metrics.Registry
}

// epMetrics are the endpoint's pre-resolved instruments. The zero value
// (nil handles, from a nil registry) is fully disabled: every method on
// a nil instrument is an inlinable no-op.
type epMetrics struct {
	joins           *metrics.Counter
	leaves          *metrics.Counter
	sends           *metrics.Counter
	deliveries      *metrics.Counter
	viewInstalls    *metrics.Counter
	lwgFlushes      *metrics.Counter
	switches        *metrics.Counter
	rebinds         *metrics.Counter
	mergeTriggers   *metrics.Counter
	merges          *metrics.Counter
	batchFlushes    *metrics.Counter
	batchedMsgs     *metrics.Counter
	batchedBytes    *metrics.Counter
	preinstallDrops *metrics.Counter
	lwgCount        *metrics.Gauge
	hwgCount        *metrics.Gauge
}

func newEpMetrics(r *metrics.Registry) epMetrics {
	return epMetrics{
		joins:           r.Counter("lwg_joins_total"),
		leaves:          r.Counter("lwg_leaves_total"),
		sends:           r.Counter("lwg_sends_total"),
		deliveries:      r.Counter("lwg_deliveries_total"),
		viewInstalls:    r.Counter("lwg_view_installs_total"),
		lwgFlushes:      r.Counter("lwg_flush_rounds_total"),
		switches:        r.Counter("lwg_switches_total"),
		rebinds:         r.Counter("lwg_rebinds_total"),
		mergeTriggers:   r.Counter("lwg_merge_triggers_total"),
		merges:          r.Counter("lwg_merges_total"),
		batchFlushes:    r.Counter("lwg_batch_flushes_total"),
		batchedMsgs:     r.Counter("lwg_batched_msgs_total"),
		batchedBytes:    r.Counter("lwg_batched_bytes_total"),
		preinstallDrops: r.Counter("core_preinstall_drops_total"),
		lwgCount:        r.Gauge("lwg_groups"),
		hwgCount:        r.Gauge("hwg_groups"),
	}
}

// Endpoint is one process's light-weight group service instance.
type Endpoint struct {
	pid    ids.ProcessID
	net    netsim.Transport
	clock  *sim.Sim
	cfg    Config
	up     Upcalls
	tracer trace.Tracer
	reg    *metrics.Registry
	ins    epMetrics

	hwg *vsync.Stack
	ns  *naming.Client

	lwgs map[ids.LWGID]*lwgMember
	hwgs map[ids.HWGID]*hwgState

	// lwgSeq holds this process's per-LWG view counters (for
	// coordinator-minted views).
	lwgSeq map[ids.LWGID]uint64
	// verSeq versions this process's naming-service writes.
	verSeq uint64
	// hwgCounter allocates fresh heavy-weight group identifiers.
	hwgCounter int64

	policyTicker  *sim.Ticker
	refreshTicker *sim.Ticker
}

// hwgState is the endpoint's per-HWG bookkeeping.
type hwgState struct {
	gid ids.HWGID
	// view is the current HWG view (zero until the first View upcall).
	view ids.View
	// stopped is set between the HWG Stop upcall and the next view.
	stopped bool
	// local is the set of local LWGs mapped on this HWG.
	local map[ids.LWGID]bool
	// known is AV_p(hwg) from Figure 5: every LWG view known to be
	// mapped on this HWG, filled by announcements and the MERGE-VIEWS
	// exchange.
	known map[ids.LWGID]map[ids.ViewID]viewRecord
	// forward holds forward pointers for LWGs switched off this HWG.
	forward map[ids.LWGID]ids.HWGID
	// mergePending dedupes MERGE-VIEWS triggers until the next view.
	mergePending bool
	// emptySince records when the HWG last had no local LWGs (for the
	// shrink rule); zero while it has some.
	emptySince sim.Time

	// batch packs outgoing lwgData from every local LWG mapped on this
	// HWG into one multicast; flushed by size (maxBatchBytes),
	// by batchTimer, or by any control-message send.
	batch      []*lwgData
	batchBytes int
	batchTimer *sim.Timer
	// nextFlush is the earliest instant batchTimer may fire: the last
	// data multicast on this HWG plus maxBatchDelay; zero (quiet)
	// before the first.
	nextFlush sim.Time
}

// NewNode builds one node on the mux, simulated or real: the light-weight
// group service endpoint, then, when p.PID is one of p.Servers, a started
// naming server configured by ns with the endpoint's tracer and metrics
// (nil on other nodes).
func NewNode(p Params, ns naming.Config, mux *netsim.Mux) (*Endpoint, *naming.Server) {
	tr := p.Tracer
	if tr == nil {
		tr = trace.Nop{}
	}
	e := &Endpoint{
		pid:    p.PID,
		net:    p.Net,
		clock:  p.Net.Sim(),
		cfg:    p.Config.withDefaults(),
		up:     p.Upcalls,
		tracer: tr,
		reg:    p.Metrics,
		ins:    newEpMetrics(p.Metrics),
		lwgs:   make(map[ids.LWGID]*lwgMember),
		hwgs:   make(map[ids.HWGID]*hwgState),
		lwgSeq: make(map[ids.LWGID]uint64),
	}
	e.hwg = vsync.NewStack(vsync.Params{
		Net:     p.Net,
		PID:     p.PID,
		Upcalls: (*hwgUpcalls)(e),
		Tracer:  tr,
		Metrics: p.Metrics,
	})
	e.ns = naming.NewClient(naming.ClientParams{
		Net:     p.Net,
		PID:     p.PID,
		Servers: p.Servers,
		Metrics: p.Metrics,
	})
	mux.Handle(vsync.AddrPrefix, e.hwg.HandleMessage)
	mux.Handle(naming.ClientPrefix, e.ns.HandleMessage)
	mux.Handle(naming.CallbackPrefix, e.handleNamingCallback)
	e.policyTicker = e.clock.Every(e.cfg.PolicyInterval, e.runPolicy)
	e.refreshTicker = e.clock.Every(e.cfg.MappingRefreshInterval, e.refreshMappings)
	for _, sp := range p.Servers {
		if sp == p.PID {
			srv := naming.NewServer(naming.ServerParams{
				Net: p.Net, PID: p.PID, Peers: p.Servers, Config: ns,
				Tracer: tr, Metrics: p.Metrics,
			})
			mux.Handle(naming.ServerPrefix, srv.HandleMessage)
			srv.Start()
			return e, srv
		}
	}
	return e, nil
}

// refreshMappings renews the naming-service lease of every mapping this
// process is responsible for (it coordinates the LWG view). Iteration is
// in sorted group order: message emission must be deterministic.
func (e *Endpoint) refreshMappings() {
	for _, l := range e.LWGs() {
		m := e.lwgs[l]
		if m.state == lwgActive && m.isCoordinator() {
			e.updateMapping(m)
		}
	}
}

// PID returns the process identifier.
func (e *Endpoint) PID() ids.ProcessID { return e.pid }

// Registry returns the endpoint's metrics registry (nil when metrics
// are disabled).
func (e *Endpoint) Registry() *metrics.Registry { return e.reg }

// updateGauges refreshes the group-count gauges; called where LWG or
// HWG membership changes.
func (e *Endpoint) updateGauges() {
	e.ins.lwgCount.Set(int64(len(e.lwgs)))
	e.ins.hwgCount.Set(int64(e.hwg.NumGroups()))
}

// HWGStack exposes the underlying heavy-weight group stack (read-only
// introspection for tests and tools).
func (e *Endpoint) HWGStack() *vsync.Stack { return e.hwg }

// LWGView returns the process's current view of the light-weight group.
func (e *Endpoint) LWGView(lwg ids.LWGID) (ids.View, bool) {
	m, ok := e.lwgs[lwg]
	if !ok || m.state != lwgActive && m.state != lwgStopped && m.state != lwgSwitching {
		return ids.View{}, false
	}
	return m.view.Clone(), true
}

// LWGPhase names the protocol phase of this process's membership in the
// group: "resolving", "joining", "active", "stopped" (LWG flush in
// progress), "switching", or "" when the process holds no state for it.
// Exposed for introspection (debug endpoints) and for the schedule
// enumerator's canonical state digest.
func (e *Endpoint) LWGPhase(lwg ids.LWGID) string {
	m, ok := e.lwgs[lwg]
	if !ok {
		return ""
	}
	switch m.state {
	case lwgResolving:
		return "resolving"
	case lwgJoining:
		return "joining"
	case lwgActive:
		return "active"
	case lwgStopped:
		return "stopped"
	case lwgSwitching:
		return "switching"
	}
	return "unknown"
}

// PreInstallBuffered returns how many data messages the member currently
// holds in its pre-install buffer (0 when not a member).
func (e *Endpoint) PreInstallBuffered(lwg ids.LWGID) int {
	m, ok := e.lwgs[lwg]
	if !ok {
		return 0
	}
	return len(m.preInstall)
}

// Mapping returns the heavy-weight group the process's view of the LWG is
// mapped on.
func (e *Endpoint) Mapping(lwg ids.LWGID) (ids.HWGID, bool) {
	m, ok := e.lwgs[lwg]
	if !ok || m.hwg == ids.NoHWG {
		return ids.NoHWG, false
	}
	return m.hwg, true
}

// LWGs returns the light-weight groups this process is a member of, in
// sorted order.
func (e *Endpoint) LWGs() []ids.LWGID {
	out := make([]ids.LWGID, 0, len(e.lwgs))
	for l := range e.lwgs {
		out = append(out, l)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HWGs returns the heavy-weight groups this process is currently a member
// of (through the vsync stack).
func (e *Endpoint) HWGs() []ids.HWGID { return e.hwg.Groups() }

// IsLWGCoordinator reports whether this process coordinates its current
// view of the group (smallest member).
func (e *Endpoint) IsLWGCoordinator(lwg ids.LWGID) bool {
	m, ok := e.lwgs[lwg]
	return ok && len(m.view.Members) > 0 && m.view.Coordinator() == e.pid
}

// RunPolicyNow runs one mapping-heuristics pass immediately (exposed for
// tests and benchmarks; production relies on the periodic timer).
func (e *Endpoint) RunPolicyNow() { e.runPolicy() }

// Stop cancels the endpoint's timers (the network node keeps existing).
func (e *Endpoint) Stop() {
	if e.policyTicker != nil {
		e.policyTicker.Stop()
		e.policyTicker = nil
	}
	if e.refreshTicker != nil {
		e.refreshTicker.Stop()
		e.refreshTicker = nil
	}
	for _, m := range e.lwgs {
		m.stopTimers()
	}
	for _, st := range e.hwgs {
		if st.batchTimer != nil {
			st.batchTimer.Stop()
			st.batchTimer = nil
		}
	}
}

func (e *Endpoint) nextLwgSeq(lwg ids.LWGID) uint64 {
	e.lwgSeq[lwg]++
	return e.lwgSeq[lwg]
}

func (e *Endpoint) observeLwgView(lwg ids.LWGID, v ids.ViewID) {
	if v.Coord == e.pid && v.Seq&groupMintedBit == 0 && e.lwgSeq[lwg] < v.Seq {
		e.lwgSeq[lwg] = v.Seq
	}
}

func (e *Endpoint) nextVer() uint64 {
	e.verSeq++
	return e.verSeq
}

// allocHWGID mints a fresh heavy-weight group identifier: globally unique
// (counter ⊕ pid) and roughly increasing over time, so later groups win
// the highest-gid tie-breaks.
func (e *Endpoint) allocHWGID() ids.HWGID {
	e.hwgCounter++
	return ids.HWGID(e.hwgCounter<<16 | int64(e.pid)&0xffff + 1)
}

func (e *Endpoint) hwgState(gid ids.HWGID) *hwgState {
	st := e.hwgs[gid]
	if st == nil {
		st = &hwgState{
			gid:     gid,
			local:   make(map[ids.LWGID]bool),
			known:   make(map[ids.LWGID]map[ids.ViewID]viewRecord),
			forward: make(map[ids.LWGID]ids.HWGID),
		}
		e.hwgs[gid] = st
	}
	return st
}

func (e *Endpoint) trace(what, format string, args ...any) {
	e.tracer.Trace(trace.Event{
		At:    e.clock.Now(),
		Node:  e.pid,
		Layer: "lwg",
		What:  what,
		Text:  fmt.Sprintf(format, args...),
	})
}

// traceEvent emits a structured event (for the invariant checker); the
// caller fills the payload fields, this stamps time, node and layer.
func (e *Endpoint) traceEvent(ev trace.Event) {
	ev.At = e.clock.Now()
	ev.Node = e.pid
	ev.Layer = "lwg"
	e.tracer.Trace(ev)
}

// hwgUpcalls adapts Endpoint to vsync.Upcalls without exporting the
// methods on Endpoint itself.
type hwgUpcalls Endpoint

var _ vsync.Upcalls = (*hwgUpcalls)(nil)

// View implements vsync.Upcalls.
func (u *hwgUpcalls) View(gid ids.HWGID, view ids.View) {
	(*Endpoint)(u).onHWGView(gid, view)
}

// Data implements vsync.Upcalls.
func (u *hwgUpcalls) Data(gid ids.HWGID, src ids.ProcessID, payload vsync.Payload) {
	(*Endpoint)(u).onHWGData(gid, src, payload)
}

// Stop implements vsync.Upcalls.
func (u *hwgUpcalls) Stop(gid ids.HWGID) {
	(*Endpoint)(u).onHWGStop(gid)
}
