package naming

import (
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
)

// Address prefixes. Servers listen on ServerPrefix, clients receive
// replies on ClientPrefix, and the light-weight group layer receives
// MULTIPLE-MAPPINGS callbacks on CallbackPrefix.
const (
	ServerPrefix   = "ns"
	ClientPrefix   = "nsc"
	CallbackPrefix = "nscb"
)

// op is a naming-service operation code.
type op int

const (
	opSetView op = iota + 1
	opReadLive
	opTestSet
	opDelete
)

func (o op) String() string {
	switch o {
	case opSetView:
		return "set-view"
	case opReadLive:
		return "read-live"
	case opTestSet:
		return "test-set"
	case opDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// msgRequest is a client request to one name server.
type msgRequest struct {
	ReqID uint64
	From  ids.ProcessID
	Op    op
	LWG   ids.LWGID
	Entry Entry // for set-view / test-set / delete
}

// WireSize implements netsim.Message.
func (m *msgRequest) WireSize() int { return 32 + m.Entry.wireSize() }

// Kind implements netsim.Kinder.
func (m *msgRequest) Kind() string { return "naming" }

// msgReply answers a client request with the live mappings of the LWG as
// the server now sees them.
type msgReply struct {
	ReqID   uint64
	Entries []Entry
}

// WireSize implements netsim.Message.
func (m *msgReply) WireSize() int {
	n := 16
	for _, e := range m.Entries {
		n += e.wireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgReply) Kind() string { return "naming" }

// digestVersion identifies the digest wire format. A server that sees a
// different version cannot interpret the summaries and drops the message.
const digestVersion = 1

// msgDigest opens a digest/delta anti-entropy exchange. The initiating
// probe (Reply=false) carries only the sender's DB generation and summary
// hash — if the responder's hash matches, the exchange ends with an empty
// delta ack and no database content crosses the wire. Otherwise the
// responder answers with Reply=true and its full digest vector, and the
// initiator computes the differing groups.
type msgDigest struct {
	From    ids.ProcessID
	Version uint8
	Gen     uint64 // sender's DB generation when the exchange started
	DBHash  uint64 // sender's whole-DB summary hash
	Digests []LWGDigest
	Reply   bool
}

// WireSize implements netsim.Message.
func (m *msgDigest) WireSize() int {
	n := 24
	for _, d := range m.Digests {
		n += d.wireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgDigest) Kind() string { return "naming-digest" }

// groupDelta carries one differing LWG: the sender's entries for the
// group plus the digest the sender had (D), so the receiver can tell
// whether its own post-merge state still differs and needs a reverse
// delta. A zero D with no entries asks the receiver to push the group.
type groupDelta struct {
	LWG     ids.LWGID
	D       Digest
	Entries []Entry
}

func (g groupDelta) wireSize() int {
	n := 22 + len(g.LWG)
	for _, e := range g.Entries {
		n += e.wireSize()
	}
	return n
}

// msgDelta carries the entries of only the differing groups. The
// initiator's delta (Reply=false) doubles as the reverse-direction
// request; the responder answers with Reply=true containing only the
// groups that still differ after its merge.
type msgDelta struct {
	From   ids.ProcessID
	Groups []groupDelta
	Reply  bool
}

// WireSize implements netsim.Message.
func (m *msgDelta) WireSize() int {
	n := 16
	for _, g := range m.Groups {
		n += g.wireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *msgDelta) Kind() string { return "naming-delta" }

// MsgMultipleMappings is the callback of Section 6.1: the naming service
// detected that concurrent views of LWG are mapped onto different HWGs.
// It carries all the mappings stored for the LWG and is unicast to the
// coordinator of every affected view.
type MsgMultipleMappings struct {
	LWG      ids.LWGID
	Mappings []Entry
}

// WireSize implements netsim.Message.
func (m *MsgMultipleMappings) WireSize() int {
	n := 16
	for _, e := range m.Mappings {
		n += e.wireSize()
	}
	return n
}

// Kind implements netsim.Kinder.
func (m *MsgMultipleMappings) Kind() string { return "naming-cb" }

var (
	_ netsim.Message = (*msgRequest)(nil)
	_ netsim.Message = (*msgReply)(nil)
	_ netsim.Message = (*msgDigest)(nil)
	_ netsim.Message = (*msgDelta)(nil)
	_ netsim.Message = (*MsgMultipleMappings)(nil)
)

// Config holds the naming-service lease.
type Config struct {
	// MappingTTL is the mapping lease: entries not refreshed within the
	// TTL are expired (collects mappings of views whose members all
	// crashed). Zero disables expiry. Coordinators refresh on
	// core.Config.MappingRefreshInterval, which must be well below this.
	MappingTTL time.Duration
}

// Naming-service timers, sized for the simulated testbed.
const (
	// requestTimeout bounds one client request to one server before the
	// client fails over to the next server.
	requestTimeout = 150 * time.Millisecond
	// syncInterval is the anti-entropy period between servers.
	syncInterval = 300 * time.Millisecond
	// notifyInterval is the period at which persisting conflicts are
	// re-announced to the affected view coordinators.
	notifyInterval = 500 * time.Millisecond
	// retryBackoff is the pause after one full unanswered pass over the
	// server list before the client starts the next pass. It doubles per
	// round (with jitter).
	retryBackoff = 200 * time.Millisecond
	// retryRounds is how many full passes over the server list a request
	// survives before it completes with ok == false. Under sustained
	// loss a single pass (the old behavior) fails far too eagerly.
	retryRounds = 4
	// maxIdleSkips bounds how many consecutive rounds a server may skip
	// probing a peer it already reconciled with while its own generation
	// is unchanged. The periodic forced probe re-verifies convergence,
	// bounding the exposure to lost acks or a summary-hash collision.
	maxIdleSkips = 8
)

// DefaultConfig returns the lease sized for the simulated testbed.
func DefaultConfig() Config {
	return Config{MappingTTL: 60 * time.Second}
}

func (c Config) withDefaults() Config {
	if c.MappingTTL == 0 {
		c.MappingTTL = DefaultConfig().MappingTTL
	}
	if c.MappingTTL < 0 {
		c.MappingTTL = 0 // explicit "disabled"
	}
	return c
}
