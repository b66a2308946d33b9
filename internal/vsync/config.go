package vsync

import "time"

// OrderingMode selects the delivery order guarantee for group multicasts.
type OrderingMode int

const (
	// OrderingFIFO (the default) delivers messages in per-sender FIFO
	// order; messages from different senders may interleave differently
	// at different members.
	OrderingFIFO OrderingMode = iota + 1
	// OrderingTotal delivers all multicasts of a view in one total order
	// agreed by every member (sequencer-based: the view coordinator
	// assigns order tokens). Messages left un-sequenced when a view
	// changes — e.g. because the sequencer crashed — are delivered in a
	// deterministic residual order before the new view installs, so the
	// total order extends across view changes consistently.
	OrderingTotal
)

// Config holds the heavy-weight group layer's failure-detector timers,
// stop acknowledgement mode and delivery order.
type Config struct {
	// HeartbeatInterval is the period of per-member liveness heartbeats.
	HeartbeatInterval time.Duration
	// FDTimeout is the silence threshold after which a peer is suspected.
	FDTimeout time.Duration
	// FDCheckInterval is the period of the suspicion check.
	FDCheckInterval time.Duration
	// FDSuspectMisses is how many consecutive suspicion checks must see
	// the peer silent past FDTimeout before it is suspected. One silent
	// check can be a delay spike (scheduling hiccup, injected jitter, a
	// burst of loss); demanding several in a row keeps spikes shorter
	// than FDTimeout + (FDSuspectMisses-1)*FDCheckInterval from forcing
	// a spurious view change.
	FDSuspectMisses int
	// AutoStopOk makes the stack acknowledge Stop itself instead of
	// upcalling the user. The light-weight group layer keeps it false so
	// it can quiesce its own groups first (Table 1's Stop/StopOk pair).
	AutoStopOk bool
	// Ordering selects the multicast delivery order (default
	// OrderingFIFO).
	Ordering OrderingMode
}

// Protocol timers and bounds of the heavy-weight group layer, sized for
// the simulated 10 Mbps testbed.
const (
	// presenceInterval is the period of the coordinator's presence
	// announcement, used for peer discovery when partitions heal.
	presenceInterval = 250 * time.Millisecond
	// joinRetryInterval is the period of the joiner's JOIN-REQ multicast.
	joinRetryInterval = 150 * time.Millisecond
	// joinTimeout is how long a joiner waits for an existing view before
	// forming a singleton view of its own.
	joinTimeout = 400 * time.Millisecond
	// flushTimeout bounds one flush round: responders that have not sent
	// FLUSH-OK by then are excluded and the round restarts.
	flushTimeout = 500 * time.Millisecond
	// responderTimeout bounds how long a stopped member waits for the
	// new view before giving up on the initiator and resuming.
	responderTimeout = 1500 * time.Millisecond
	// maxFlushAttempts bounds reconfiguration retries.
	maxFlushAttempts = 5
	// ackInterval is the idle-receiver period of the stability scheme:
	// every outgoing data message carries the sender's cumulative
	// acknowledgement vector, and a member that sent no data since the
	// last tick sends one standalone vector instead.
	ackInterval = 50 * time.Millisecond
	// nackInterval is the period of the loss-repair scan: observed
	// sequence gaps older than one interval are NACKed to their sender.
	nackInterval = 100 * time.Millisecond
)

// DefaultConfig returns timers sized for the simulated 10 Mbps testbed:
// failure detection in a few hundred milliseconds, flush rounds bounded
// well above a worst-case bus round-trip.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 100 * time.Millisecond,
		FDTimeout:         350 * time.Millisecond,
		FDCheckInterval:   50 * time.Millisecond,
		FDSuspectMisses:   3,
		AutoStopOk:        false,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.FDTimeout <= 0 {
		c.FDTimeout = d.FDTimeout
	}
	if c.FDCheckInterval <= 0 {
		c.FDCheckInterval = d.FDCheckInterval
	}
	if c.FDSuspectMisses <= 0 {
		c.FDSuspectMisses = d.FDSuspectMisses
	}
	if c.Ordering == 0 {
		c.Ordering = OrderingFIFO
	}
	return c
}
