// Package vsync implements the paper's heavy-weight group (HWG) substrate:
// a partitionable, virtually synchronous group communication layer
// (Sections 3.1 and 5.1). It provides exactly the Table 1 interface —
// Join, Leave, Send and StopOk downcalls; View, Data and Stop upcalls —
// on top of the simulated network.
//
// Guarantees (within the limits of a suspicion-based partitionable model):
//
//   - View synchrony: processes that install the same two consecutive
//     views deliver the same set of messages between them. This is
//     enforced by a coordinator-driven flush: a STOP round quiesces the
//     old view, FLUSH-OK responses carry each member's unstable messages,
//     and the NEW-VIEW message re-multicasts the per-view union so every
//     survivor closes the old view with an identical delivery set.
//   - Partitionable membership: when the network splits, each side
//     installs a concurrent view covering its reachable members; when the
//     partition heals, coordinators discover each other through periodic
//     presence announcements and merge the concurrent views.
//   - View-tagged delivery: every message carries the view identifier it
//     was sent in and is delivered only to members of that view
//     (Section 5.1), which is what lets the LWG layer decouple its own
//     merges from HWG merges.
package vsync

import (
	"errors"
	"fmt"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
	"plwg/internal/wire"
)

// tcSource is the optional transport capability of exposing the wire
// trace context of the envelope currently being delivered (rtnet's
// Transport implements it; the simulated network does not, keeping sim
// runs free of wall-clock reads).
type tcSource interface {
	InboundTraceCtx() (wire.TraceCtx, bool)
}

// Upcalls is the interface the user of the HWG layer implements to receive
// the Table 1 upcalls. The light-weight group service is such a user.
type Upcalls interface {
	// View reports installation of a new view of the group.
	View(gid ids.HWGID, view ids.View)
	// Data delivers a virtually synchronous multicast.
	Data(gid ids.HWGID, src ids.ProcessID, payload Payload)
	// Stop asks the user to cease sending on the group; the user must
	// answer with Stack.StopOk once quiesced (possibly from within the
	// upcall itself).
	Stop(gid ids.HWGID)
}

// Errors returned by the downcalls.
var (
	ErrNotMember     = errors.New("vsync: not a member of the group")
	ErrAlreadyJoined = errors.New("vsync: already joined or joining the group")
	ErrNoStopPending = errors.New("vsync: no stop pending")
)

// Params bundles the dependencies of a Stack.
type Params struct {
	Net netsim.Transport
	PID ids.ProcessID
	// Upcalls receives the Table 1 upcalls; nil acknowledges every Stop
	// at once.
	Upcalls Upcalls
	Tracer  trace.Tracer
	// Metrics receives the stack's instrumentation; nil disables it at
	// zero hot-path cost.
	Metrics *metrics.Registry
}

// stackMetrics are the Stack's pre-resolved instruments. The zero value
// (nil handles, from a nil registry) is fully disabled.
type stackMetrics struct {
	sends        *metrics.Counter
	deliveries   *metrics.Counter
	nacks        *metrics.Counter
	retransMsgs  *metrics.Counter
	flushRounds  *metrics.Counter
	flushAborts  *metrics.Counter
	viewInstalls *metrics.Counter
	suspects     *metrics.Counter
	flushDur     *metrics.Histo
}

func newStackMetrics(r *metrics.Registry) stackMetrics {
	return stackMetrics{
		sends:        r.Counter("hwg_sends_total"),
		deliveries:   r.Counter("hwg_deliveries_total"),
		nacks:        r.Counter("hwg_nacks_total"),
		retransMsgs:  r.Counter("hwg_retrans_msgs_total"),
		flushRounds:  r.Counter("hwg_flush_rounds_total"),
		flushAborts:  r.Counter("hwg_flush_aborts_total"),
		viewInstalls: r.Counter("hwg_view_installs_total"),
		suspects:     r.Counter("hwg_suspects_total"),
		flushDur:     r.Histogram("hwg_flush_duration"),
	}
}

// Stack is one process's heavy-weight group endpoint. It can be a member
// of any number of groups at once. All methods must be called from the
// simulation goroutine.
type Stack struct {
	net    netsim.Transport
	clock  *sim.Sim
	pid    ids.ProcessID
	up     Upcalls
	tracer trace.Tracer
	ins    stackMetrics
	// reg resolves per-group labeled instruments lazily (nil disables).
	reg *metrics.Registry
	// netTC is the transport's inbound trace-context capability, nil on
	// the simulated network.
	netTC tcSource
	// inTC/inTCOK expose the wire trace context of the message currently
	// being handed up via the Data upcall; valid only for the duration of
	// that synchronous upcall (single protocol goroutine).
	inTC   wire.TraceCtx
	inTCOK bool

	groups map[ids.HWGID]*member
	// viewSeq is this process's per-group view-sequence counter: "a local
	// counter incremented by the coordinator of the view whenever a new
	// view is installed" (Section 5.1). It is never reset, so the pair
	// (pid, seq) is globally unique.
	viewSeq map[ids.HWGID]uint64
	// epochN numbers this process's reconfiguration attempts.
	epochN uint64
}

// NewStack creates a heavy-weight group endpoint for the process. The
// caller must route messages with the AddrPrefix mux prefix to
// HandleMessage.
func NewStack(p Params) *Stack {
	tr := p.Tracer
	if tr == nil {
		tr = trace.Nop{}
	}
	netTC, _ := p.Net.(tcSource)
	return &Stack{
		net:     p.Net,
		clock:   p.Net.Sim(),
		pid:     p.PID,
		up:      p.Upcalls,
		tracer:  tr,
		ins:     newStackMetrics(p.Metrics),
		reg:     p.Metrics,
		netTC:   netTC,
		groups:  make(map[ids.HWGID]*member),
		viewSeq: make(map[ids.HWGID]uint64),
	}
}

// inboundTC returns the wire trace context of the envelope currently
// being delivered by the transport, if the transport exposes one.
func (s *Stack) inboundTC() (wire.TraceCtx, bool) {
	if s.netTC == nil {
		return wire.TraceCtx{}, false
	}
	return s.netTC.InboundTraceCtx()
}

// InboundTC returns the wire trace context of the data message currently
// being delivered through the Data upcall, when the message's envelope
// carried one (sampling makes that the minority of data traffic). Valid
// only inside the upcall, on the protocol goroutine — the light-weight
// layer uses it to extend one-way latency accounting to LWG deliveries.
func (s *Stack) InboundTC() (wire.TraceCtx, bool) { return s.inTC, s.inTCOK }

// NumGroups returns the number of groups the stack participates in
// (allocation-free, for gauges).
func (s *Stack) NumGroups() int { return len(s.groups) }

// PID returns the process identifier of this endpoint.
func (s *Stack) PID() ids.ProcessID { return s.pid }

// Join starts joining the group (Table 1 downcall). The caller learns the
// outcome through the View upcall: either an existing view admits the
// process, or after joinTimeout the process installs a singleton
// view of itself.
func (s *Stack) Join(gid ids.HWGID) error {
	if _, ok := s.groups[gid]; ok {
		return ErrAlreadyJoined
	}
	m := newMember(s, gid)
	s.groups[gid] = m
	m.startJoin()
	return nil
}

// Create founds the group: the process installs a singleton view of
// itself immediately, without the join-discovery timeout. Intended for
// freshly allocated group identifiers (the caller knows no other member
// can exist); if two processes do race, their singleton views merge
// through presence discovery like any concurrent views.
func (s *Stack) Create(gid ids.HWGID) error {
	if _, ok := s.groups[gid]; ok {
		return ErrAlreadyJoined
	}
	m := newMember(s, gid)
	s.groups[gid] = m
	s.net.Subscribe(s.pid, GroupAddr(gid))
	m.state = stateJoining
	m.formSingleton()
	return nil
}

// Flush forces a flush and reinstallation of the group's view without a
// membership change. Only the operating coordinator can force a flush;
// calls from other members, or while a view change is already in
// progress, are no-ops. The light-weight group layer uses this to realize
// Figure 5's "force the flush of the hwg".
func (s *Stack) Flush(gid ids.HWGID) error {
	m, ok := s.groups[gid]
	if !ok {
		return ErrNotMember
	}
	if m.view.ID.IsZero() || m.view.Coordinator() != s.pid {
		return nil
	}
	m.maybeReconfigure("forced-flush")
	return nil
}

// Leave starts leaving the group (Table 1 downcall). The process keeps
// participating in any in-progress flush (so its messages survive) and is
// removed by the next view change.
func (s *Stack) Leave(gid ids.HWGID) error {
	m, ok := s.groups[gid]
	if !ok {
		return ErrNotMember
	}
	m.requestLeave()
	return nil
}

// Send multicasts a virtually synchronous message on the group (Table 1
// downcall). While a flush is in progress (or the join has not completed)
// the message is buffered and transmitted in the next installed view.
func (s *Stack) Send(gid ids.HWGID, payload Payload) error {
	m, ok := s.groups[gid]
	if !ok {
		return ErrNotMember
	}
	m.send(payload)
	return nil
}

// StopOk confirms a Stop upcall (Table 1 downcall): the user has quiesced
// and the flush may proceed.
func (s *Stack) StopOk(gid ids.HWGID) error {
	m, ok := s.groups[gid]
	if !ok {
		return ErrNotMember
	}
	return m.stopOk()
}

// CurrentView returns the installed view of the group, if any.
func (s *Stack) CurrentView(gid ids.HWGID) (ids.View, bool) {
	m, ok := s.groups[gid]
	if !ok || m.view.ID.IsZero() {
		return ids.View{}, false
	}
	return m.view.Clone(), true
}

// IsMember reports whether the process has (or is acquiring) membership of
// the group.
func (s *Stack) IsMember(gid ids.HWGID) bool {
	_, ok := s.groups[gid]
	return ok
}

// IsCoordinator reports whether the process is the operating coordinator
// (smallest member) of its current view of the group.
func (s *Stack) IsCoordinator(gid ids.HWGID) bool {
	m, ok := s.groups[gid]
	return ok && !m.view.ID.IsZero() && m.view.Coordinator() == s.pid
}

// Groups returns the groups this stack participates in, in sorted order.
func (s *Stack) Groups() []ids.HWGID {
	out := make([]ids.HWGID, 0, len(s.groups))
	for gid := range s.groups {
		out = append(out, gid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HandleMessage is the network receive entry point; register it on the
// node's mux under AddrPrefix.
func (s *Stack) HandleMessage(from netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
	switch m := msg.(type) {
	case *msgData:
		s.withMember(m.GID, func(mb *member) { mb.onData(from, m) })
	case *msgNack:
		s.withMember(m.GID, func(mb *member) { mb.onNack(from, m) })
	case *msgRetrans:
		s.withMember(m.GID, func(mb *member) { mb.onRetrans(from, m) })
	case *msgHeartbeat:
		s.withMember(m.GID, func(mb *member) { mb.onHeartbeat(from, m) })
	case *msgPresence:
		s.withMember(m.GID, func(mb *member) { mb.onPresence(from, m) })
	case *msgJoinReq:
		s.withMember(m.GID, func(mb *member) { mb.onJoinReq(from, m) })
	case *msgLeaveReq:
		s.withMember(m.GID, func(mb *member) { mb.onLeaveReq(from, m) })
	case *msgStop:
		s.withMember(m.GID, func(mb *member) { mb.onStop(from, m) })
	case *msgAbort:
		s.withMember(m.GID, func(mb *member) { mb.onAbort(from, m) })
	case *msgFlushOk:
		s.withMember(m.GID, func(mb *member) { mb.onFlushOk(from, m) })
	case *msgFlushPull:
		s.withMember(m.GID, func(mb *member) { mb.onFlushPull(from, m) })
	case *msgFlushFill:
		s.withMember(m.GID, func(mb *member) { mb.onFlushFill(from, m) })
	case *msgNewView:
		s.withMember(m.GID, func(mb *member) { mb.onNewView(from, m) })
	}
}

func (s *Stack) withMember(gid ids.HWGID, fn func(*member)) {
	if m, ok := s.groups[gid]; ok {
		fn(m)
	}
}

// nextViewSeq mints the next view sequence number for a view this process
// installs in the group.
func (s *Stack) nextViewSeq(gid ids.HWGID) uint64 {
	s.viewSeq[gid]++
	return s.viewSeq[gid]
}

// observeViewSeq advances the local counter past seq (used when a view
// identifier bearing this process's name was minted deterministically by
// the group, e.g. a light-weight merge).
func (s *Stack) observeViewSeq(gid ids.HWGID, seq uint64) {
	if s.viewSeq[gid] < seq {
		s.viewSeq[gid] = seq
	}
}

func (s *Stack) nextEpoch() epoch {
	s.epochN++
	return epoch{Initiator: s.pid, N: s.epochN}
}

func (s *Stack) trace(gid ids.HWGID, what, format string, args ...any) {
	s.tracer.Trace(trace.Event{
		At:    s.clock.Now(),
		Node:  s.pid,
		Layer: "vsync",
		What:  what,
		Text:  fmt.Sprintf("%v: %s", gid, fmt.Sprintf(format, args...)),
	})
}

// traceEvent emits a structured event (for the invariant checker); the
// caller fills the payload fields, this stamps time, node and layer.
func (s *Stack) traceEvent(ev trace.Event) {
	ev.At = s.clock.Now()
	ev.Node = s.pid
	ev.Layer = "vsync"
	s.tracer.Trace(ev)
}

// dropMember removes all state for the group (after leave or exclusion).
func (s *Stack) dropMember(gid ids.HWGID) {
	m, ok := s.groups[gid]
	if !ok {
		return
	}
	m.stopTimers()
	s.net.Unsubscribe(s.pid, GroupAddr(gid))
	delete(s.groups, gid)
}
