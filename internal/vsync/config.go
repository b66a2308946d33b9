package vsync

import "time"

// Protocol timers and bounds of the heavy-weight group layer, sized for
// the simulated 10 Mbps testbed: failure detection in a few hundred
// milliseconds, flush rounds bounded well above a worst-case bus
// round-trip.
const (
	// HeartbeatInterval is the period of per-member liveness heartbeats.
	HeartbeatInterval = 100 * time.Millisecond
	// FDTimeout is the silence threshold after which a peer is suspected.
	FDTimeout = 350 * time.Millisecond
	// FDCheckInterval is the period of the suspicion check.
	FDCheckInterval = 50 * time.Millisecond
	// FDSuspectMisses is how many consecutive suspicion checks must see
	// the peer silent past FDTimeout before it is suspected. One silent
	// check can be a delay spike (scheduling hiccup, injected jitter, a
	// burst of loss); demanding several in a row keeps spikes shorter
	// than FDTimeout + (FDSuspectMisses-1)*FDCheckInterval from forcing
	// a spurious view change.
	FDSuspectMisses = 3
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
