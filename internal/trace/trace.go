// Package trace provides lightweight structured event tracing for the
// protocol stacks. Traces are used by tests to assert protocol behaviour
// and by the scenario player (cmd/lwgsim) to narrate reconciliation runs.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"plwg/internal/ids"
	"plwg/internal/sim"
)

// Canonical What values for the structured events consumed by the
// invariant checker (internal/check). Other events are free-form.
const (
	// LWGViewInstall marks a light-weight group view installation. The
	// event carries Group, View, Members and Parents.
	LWGViewInstall = "lwg-view"
	// LWGDeliver marks a Data upcall to the LWG user. The event carries
	// Group, View (the view the message was delivered in), Src and Data.
	LWGDeliver = "lwg-deliver"
	// LWGSend marks an actual LWG multicast emission (after any
	// buffering), stamped with the view it was sent in. The event carries
	// Group, View, Src (the sender itself) and Data.
	LWGSend = "lwg-send"
	// HWGViewInstall marks a heavy-weight group view installation. The
	// event carries Group, View and Members.
	HWGViewInstall = "view-install"

	// LWGSwitch marks a switch announcement: the LWG view's coordinator
	// instructs the members to re-map the group onto another HWG. The
	// event carries Group (the LWG), View (the view being switched) and
	// Ref (the target HWG). Every member's matching LWGRebind carries
	// the same Group and Ref, which is the cross-node correlation key of
	// the switching operation.
	LWGSwitch = "lwg-switch"
	// LWGRebind marks one member completing a switch: it is now bound to
	// the target HWG. The event carries Group, View (the view bound on
	// the target) and Ref (the target HWG).
	LWGRebind = "lwg-rebind"
	// LWGMergeStep marks one step of the Figure 5 MERGE-VIEWS protocol
	// executing at one member. The event carries Group (the HWG the
	// merge runs on), View (the HWG view it executes in — the cross-node
	// correlation key), Step (1 trigger, 2 mapped-views exchange,
	// 3 forced flush, 4 reconcile/merge) and, for step 4, Ref (the LWG
	// being reconciled) plus Data (the merged LWG view identifier).
	LWGMergeStep = "merge-step"
	// HWGFlushStart / HWGFlushDone bracket a vsync flush round. Both
	// carry Group, View (the view being flushed) and Ref (the round's
	// epoch — the cross-node correlation key; responders' "stopped"
	// events carry the same Ref).
	HWGFlushStart = "flush-start"
	// HWGFlushDone — see HWGFlushStart.
	HWGFlushDone = "flush-done"
	// HWGRetrans marks a retransmission of stored messages to a peer
	// that NACKed a gap. The event carries Group, View and Ref (the
	// requesting process).
	HWGRetrans = "retransmit"
	// NSDigest marks one leg of a naming-service digest/delta
	// anti-entropy exchange. The event carries Ref (the peer).
	NSDigest = "ns-digest"
	// LWGPreInstallDrop marks a pre-install buffer overflow shedding a
	// view-tagged data message before it could be replayed. The event
	// carries Group, View (the tag of the dropped message), Src and Data.
	// The invariant checker treats it as a finding: an overflow-induced
	// delivery gap must never pass as silence.
	LWGPreInstallDrop = "lwg-preinstall-drop"
	// WireRecv marks a trace-context-carrying envelope arriving at a
	// live rtnet node (Layer "net"). The event carries Src (the origin
	// process from the wire context) and Ref (the context's operation
	// reference — the envelope address it was sent to), tying the
	// receiver's ring to the sender's without a shared recorder.
	WireRecv = "wire-recv"
	// WireSendError marks a message the rtnet transport could not encode
	// and therefore did not send (Layer "net"): its type, or a payload
	// it carries, has no wire codec. The event carries Data (the Go
	// type of the message) and Ref (the address it was bound for).
	WireSendError = "wire-send-error"
)

// Event is one traced protocol event.
//
// At/Node/Layer/What/Text describe the event for humans. The remaining
// fields are optional structured payload filled in by the protocol layers
// for the canonical What values above, so that checkers can verify safety
// properties without parsing log text.
type Event struct {
	At    sim.Time
	Node  ids.ProcessID
	Layer string // "vsync", "lwg", "ns"
	What  string // e.g. "view-install", "merge-views", "switch"
	Text  string

	// Group names the group the event concerns: the LWG name, or the
	// HWGID rendering for vsync-level events.
	Group string
	// View is the view identifier the event concerns (installed view,
	// or the view a message was sent/delivered in).
	View ids.ViewID
	// Members is the membership of an installed view.
	Members ids.Members
	// Parents is the ancestor set declared for an installed view (the
	// genealogy edge set; may be the full transitive ancestor set).
	Parents ids.ViewIDs
	// Src is the originator of a delivered or sent message.
	Src ids.ProcessID
	// Data is the (stringified) payload of a sent/delivered message.
	Data string
	// Ref is a free-form correlation reference: the target HWG of a
	// switch, the epoch of a flush round, the peer of a digest
	// exchange. Events of one cross-node operation share it (see
	// Stitch).
	Ref string
	// Step numbers the protocol step within a multi-step operation
	// (MERGE-VIEWS steps 1–4); zero elsewhere.
	Step int
}

// String renders the event as a single log line.
func (e Event) String() string {
	return fmt.Sprintf("%10.4fs %-4v %-5s %-16s %s",
		e.At.Seconds(), e.Node, e.Layer, e.What, e.Text)
}

// Tracer receives protocol events.
type Tracer interface {
	Trace(e Event)
}

// Nop is a Tracer that discards everything.
type Nop struct{}

// Trace implements Tracer.
func (Nop) Trace(Event) {}

var _ Tracer = Nop{}

// Recorder is a Tracer that stores events in memory.
type Recorder struct {
	Events []Event
}

var _ Tracer = (*Recorder)(nil)

// Trace implements Tracer.
func (r *Recorder) Trace(e Event) { r.Events = append(r.Events, e) }

// Filter returns the recorded events matching layer and/or what (empty
// string matches anything).
func (r *Recorder) Filter(layer, what string) []Event {
	var out []Event
	for _, e := range r.Events {
		if (layer == "" || e.Layer == layer) && (what == "" || e.What == what) {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders all recorded events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// SyncRecorder is a Recorder that is safe for concurrent use. Real-network
// runs (internal/rtnet) trace from one protocol goroutine per node, so a
// shared recorder must serialise appends. Per-node event order is
// preserved (each node traces from a single goroutine); the interleaving
// across nodes is whatever the lock order happened to be, which is all
// the invariant checker relies on.
type SyncRecorder struct {
	mu  sync.Mutex
	rec Recorder
}

var _ Tracer = (*SyncRecorder)(nil)

// Trace implements Tracer.
func (r *SyncRecorder) Trace(e Event) {
	r.mu.Lock()
	r.rec.Trace(e)
	r.mu.Unlock()
}

// Snapshot returns a copy of the events recorded so far.
func (r *SyncRecorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.rec.Events...)
}

// Func adapts a function to the Tracer interface.
type Func func(Event)

// Trace implements Tracer.
func (f Func) Trace(e Event) { f(e) }
