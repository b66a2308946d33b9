package vsync

import (
	"fmt"
	"strconv"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/wire"
)

// Payload is the user content of a virtually synchronous multicast (for
// the light-weight group layer: one LWG protocol message). WireSize is the
// serialized size in bytes, used by the network model.
type Payload interface {
	WireSize() int
}

// GroupAddr returns the multicast address of a heavy-weight group.
func GroupAddr(gid ids.HWGID) netsim.Addr {
	return netsim.Addr("hwg/" + strconv.FormatInt(int64(gid), 10))
}

// AddrPrefix is the mux prefix claimed by the heavy-weight group layer.
const AddrPrefix = "hwg"

// epoch identifies one reconfiguration attempt: the initiator plus a
// counter local to it. Responders use it to match FLUSH-OK messages with
// STOP messages.
type epoch struct {
	Initiator ids.ProcessID
	N         uint64
}

func (e epoch) String() string { return fmt.Sprintf("%v#%d", e.Initiator, e.N) }

// msgKey identifies one data message within a view.
type msgKey struct {
	View   ids.ViewID
	Sender ids.ProcessID
	Seq    uint64
}

// msgData is a virtually synchronous multicast, tagged with the view it
// was sent in (Section 5.1: "each protocol message ... is tagged with a
// view identifier when it is sent and is only delivered to members of that
// view").
type msgData struct {
	GID     ids.HWGID
	View    ids.ViewID
	Sender  ids.ProcessID
	Seq     uint64
	Payload Payload
	// Acks piggybacks the sender's cumulative acknowledgement vector
	// (highest contiguous sequence delivered per sender in View); nil
	// when the sender has delivered nothing yet.
	Acks map[ids.ProcessID]uint64

	// tc is the wire trace context of the envelope this message arrived
	// in, attached by the receiver in onData (never serialized — it is
	// not part of the message, it is delivery metadata).
	tc   wire.TraceCtx
	tcOK bool
}

func (m *msgData) key() msgKey { return msgKey{View: m.View, Sender: m.Sender, Seq: m.Seq} }

// WireSize implements netsim.Message.
func (m *msgData) WireSize() int {
	n := 32 + 12*len(m.Acks)
	if m.Payload != nil {
		n += m.Payload.WireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgData) Kind() string { return "data" }

// msgAckVector is a standalone cumulative acknowledgement: the highest
// contiguous sequence number delivered per sender in the current view,
// sent once per ackInterval in which no data message carried it.
type msgAckVector struct {
	GID    ids.HWGID
	View   ids.ViewID
	From   ids.ProcessID
	MaxSeq map[ids.ProcessID]uint64
}

// WireSize implements netsim.Message.
func (m *msgAckVector) WireSize() int { return 24 + 12*len(m.MaxSeq) }

// Kind implements netsim.Kinder.
func (m *msgAckVector) Kind() string { return "ack" }

// msgNack asks a sender to retransmit messages the requester observed a
// sequence gap for — loss repair on unreliable transports. (The
// simulated bus never loses frames unless configured to; real UDP
// does.)
type msgNack struct {
	GID  ids.HWGID
	From ids.ProcessID
	Keys []msgKey
}

// WireSize implements netsim.Message.
func (m *msgNack) WireSize() int { return 24 + 16*len(m.Keys) }

// Kind implements netsim.Kinder.
func (m *msgNack) Kind() string { return "nack" }

// msgRetrans answers a NACK with buffered copies.
type msgRetrans struct {
	GID  ids.HWGID
	Msgs []*msgData
}

// WireSize implements netsim.Message.
func (m *msgRetrans) WireSize() int {
	n := 16
	for _, d := range m.Msgs {
		n += d.WireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgRetrans) Kind() string { return "nack" }

// msgHeartbeat is the per-member liveness beacon. It advertises the
// sender's highest used sequence number so receivers can detect the loss
// of a sender's most recent messages (a tail loss leaves no later message
// to expose the gap).
type msgHeartbeat struct {
	GID    ids.HWGID
	From   ids.ProcessID
	View   ids.ViewID
	MaxSeq uint64
}

// WireSize implements netsim.Message.
func (m *msgHeartbeat) WireSize() int { return 32 }

// Kind implements netsim.Kinder.
func (m *msgHeartbeat) Kind() string { return "heartbeat" }

// msgPresence is the coordinator's periodic view announcement; when
// presences from concurrent views meet after a heal, the lower-coordinator
// view initiates a merge ("peer discovery" at the HWG level, Section 4).
type msgPresence struct {
	GID  ids.HWGID
	View ids.View
}

// WireSize implements netsim.Message.
func (m *msgPresence) WireSize() int { return 24 + 8*len(m.View.Members) }

// Kind implements netsim.Kinder.
func (m *msgPresence) Kind() string { return "presence" }

// msgJoinReq announces a process wanting to join the group.
type msgJoinReq struct {
	GID  ids.HWGID
	From ids.ProcessID
}

// WireSize implements netsim.Message.
func (m *msgJoinReq) WireSize() int { return 16 }

// Kind implements netsim.Kinder.
func (m *msgJoinReq) Kind() string { return "join" }

// msgLeaveReq asks the coordinator to exclude the sender.
type msgLeaveReq struct {
	GID  ids.HWGID
	From ids.ProcessID
}

// WireSize implements netsim.Message.
func (m *msgLeaveReq) WireSize() int { return 16 }

// Kind implements netsim.Kinder.
func (m *msgLeaveReq) Kind() string { return "leave" }

// msgStop starts a flush round. Every process whose current view is listed
// in Targets — and every listed joiner — must quiesce and answer FLUSH-OK.
type msgStop struct {
	GID     ids.HWGID
	Epoch   epoch
	Targets ids.ViewIDs
	Joiners ids.Members
}

// WireSize implements netsim.Message.
func (m *msgStop) WireSize() int { return 32 + 16*len(m.Targets) + 8*len(m.Joiners) }

// Kind implements netsim.Kinder.
func (m *msgStop) Kind() string { return "flush" }

// msgAbort voids a flush round whose initiator gave up (it yielded to a
// lower-numbered competitor, exhausted its retries, or was itself absorbed
// into another view). Responders stopped on the epoch resume immediately
// instead of waiting out responderTimeout.
type msgAbort struct {
	GID   ids.HWGID
	Epoch epoch
}

// WireSize implements netsim.Message.
func (m *msgAbort) WireSize() int { return 24 }

// Kind implements netsim.Kinder.
func (m *msgAbort) Kind() string { return "flush" }

// msgFlushOk is a responder's flush contribution: its identity, the view
// it is flushing, and a compact digest of what it delivered in that view
// (per-sender highest contiguous sequence number, plus any out-of-order
// extras). The initiator compares digests to find the delivery cut; only
// actual gap messages are then pulled and re-multicast, so the flush cost
// scales with divergence, not with the volume of in-flight traffic.
type msgFlushOk struct {
	GID     ids.HWGID
	Epoch   epoch
	From    ids.ProcessID
	View    ids.ViewID // zero for joiners
	Joining bool
	Leaving bool
	// Digest maps each sender to the highest contiguous sequence the
	// responder delivered in View.
	Digest map[ids.ProcessID]uint64
	// Extras lists deliveries beyond the contiguous prefix (possible
	// after earlier retransmissions).
	Extras []msgKey
}

// WireSize implements netsim.Message.
func (m *msgFlushOk) WireSize() int {
	return 48 + 12*len(m.Digest) + 16*len(m.Extras)
}

// Kind implements netsim.Kinder.
func (m *msgFlushOk) Kind() string { return "flush" }

// msgFlushPull asks a responder for copies of specific unstable messages
// the initiator must re-multicast to close delivery gaps.
type msgFlushPull struct {
	GID   ids.HWGID
	Epoch epoch
	Keys  []msgKey
}

// WireSize implements netsim.Message.
func (m *msgFlushPull) WireSize() int { return 24 + 16*len(m.Keys) }

// Kind implements netsim.Kinder.
func (m *msgFlushPull) Kind() string { return "flush" }

// msgFlushFill answers a pull with the requested message copies.
type msgFlushFill struct {
	GID   ids.HWGID
	Epoch epoch
	From  ids.ProcessID
	Msgs  []*msgData
}

// WireSize implements netsim.Message.
func (m *msgFlushFill) WireSize() int {
	n := 24
	for _, d := range m.Msgs {
		n += d.WireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgFlushFill) Kind() string { return "flush" }

// msgNewView ends a flush round: it carries the new view, the old views it
// supersedes, and the retransmission set (union of unstable messages per
// old view) that every survivor must deliver before installing.
type msgNewView struct {
	GID       ids.HWGID
	Epoch     epoch
	View      ids.View
	PrevViews ids.ViewIDs
	FlushData []*msgData
}

// WireSize implements netsim.Message.
func (m *msgNewView) WireSize() int {
	n := 48 + 8*len(m.View.Members) + 16*len(m.PrevViews)
	for _, d := range m.FlushData {
		n += d.WireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgNewView) Kind() string { return "flush" }
