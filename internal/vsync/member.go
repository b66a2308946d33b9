package vsync

import (
	"fmt"
	"math"
	"sort"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// memberState is the per-group protocol state of a process.
type memberState int

const (
	// stateJoining: announcing JOIN-REQ, waiting to be admitted into an
	// existing view or to form a singleton view.
	stateJoining memberState = iota + 1
	// stateNormal: a view is installed and traffic flows.
	stateNormal
	// stateStopped: a STOP was received; the member has quiesced (or is
	// waiting for the user's StopOk) and awaits the NEW-VIEW.
	stateStopped
)

// member is the per-(process, group) protocol instance.
type member struct {
	st  *Stack
	gid ids.HWGID

	state memberState
	view  ids.View

	// Sending.
	nextSeq uint64
	pending []Payload

	// Per-view delivery and stability state (reset at each install).
	// buffer holds the delivered messages that are not yet stable.
	buffer map[msgKey]*msgData
	// ackVectors holds, per other view member, the highest contiguous
	// sequence the peer acknowledged per sender.
	ackVectors map[ids.ProcessID]map[ids.ProcessID]uint64
	// stableSeq is, per sender, the sequence up to which buffer has been
	// collected: no buffered message of that sender is numbered at or
	// below it.
	stableSeq map[ids.ProcessID]uint64
	// deliveredSeq tracks the highest contiguous sequence delivered per
	// sender; together with extras it forms the flush digest, and it is
	// also the delivered set that deduplicates (see isDelivered).
	deliveredSeq map[ids.ProcessID]uint64
	// extras records deliveries beyond the contiguous prefix (possible
	// only through flush retransmissions).
	extras map[msgKey]bool

	// Loss repair (reset per view). maxSeen is the highest sequence
	// observed per sender; gaps below it that persist across two scans
	// are NACKed to the sender.
	maxSeen  map[ids.ProcessID]uint64
	prevGaps map[msgKey]bool

	// Failure detection. Suspicion needs FDSuspectMisses consecutive
	// checks past FDTimeout (fdStrikes counts them), so a single delay
	// spike does not trigger a view change.
	lastHeard map[ids.ProcessID]sim.Time
	fdStrikes map[ids.ProcessID]int
	suspects  map[ids.ProcessID]bool

	// Flush participation (responder side).
	stopEpoch   epoch
	stopPending bool // Stop upcall delivered, awaiting StopOk
	respTimer   *sim.Timer

	// joinCommit is the admission round a joiner has committed to. A
	// joiner answers one admission at a time (defecting only to a
	// lower-numbered initiator); otherwise two concurrent coordinators
	// could both install views claiming the joiner, while the joiner
	// enters only one of them.
	joinCommit      epoch
	joinCommitTimer *sim.Timer

	// Reconfiguration (initiator side); nil when idle.
	rc *reconfig

	// knownPeers holds concurrent views discovered through presence
	// announcements (HWG-level peer discovery), pending a merge.
	knownPeers map[ids.ViewID]ids.View

	// Joins observed while this process coordinates the group.
	pendingJoiners map[ids.ProcessID]bool
	// Leave requests observed while this process coordinates the group.
	leavers map[ids.ProcessID]bool

	// Leave intent of this process itself.
	leaveRequested bool

	// Timers.
	hbTicker   *sim.Ticker
	fdTicker   *sim.Ticker
	presTicker *sim.Ticker
	nackTicker *sim.Ticker
	joinTicker *sim.Ticker
	joinTimer  *sim.Timer

	// hLatency is the per-group one-way send→deliver latency histogram,
	// fed by wire trace contexts on sampled data envelopes (rtnet only;
	// nil histogram when metrics are disabled).
	hLatency *metrics.Histo
}

// reconfig is the initiator-side state of one flush round.
type reconfig struct {
	epoch epoch
	// startedAt is when the round began, for the flush-duration
	// histogram observed at completion.
	startedAt sim.Time
	// targets maps each old view being flushed to its expected
	// responders.
	targets map[ids.ViewID]ids.Members
	joiners ids.Members
	// got holds the FLUSH-OK received per responder.
	got      map[ids.ProcessID]*msgFlushOk
	expected ids.Members
	timer    *sim.Timer
	attempts int
	// pulling is set while gap messages are being fetched from their
	// holders; wanted maps each missing message to nil until its copy
	// arrives in a FLUSH-FILL.
	pulling bool
	wanted  map[msgKey]*msgData
}

func newMember(s *Stack, gid ids.HWGID) *member {
	return &member{
		st:             s,
		gid:            gid,
		knownPeers:     make(map[ids.ViewID]ids.View),
		pendingJoiners: make(map[ids.ProcessID]bool),
		leavers:        make(map[ids.ProcessID]bool),
		hLatency:       s.reg.Histogram("hwg_oneway_latency", metrics.L("hwg", gid.String())),
	}
}

func (m *member) multicast(msg interface {
	WireSize() int
}) {
	m.st.net.Multicast(m.st.pid, GroupAddr(m.gid), msg)
}

func (m *member) unicast(to ids.ProcessID, msg interface {
	WireSize() int
}) {
	m.st.net.Unicast(m.st.pid, to, GroupAddr(m.gid), msg)
}

// --- joining -------------------------------------------------------------

func (m *member) startJoin() {
	m.state = stateJoining
	m.st.net.Subscribe(m.st.pid, GroupAddr(m.gid))
	m.st.trace(m.gid, "join-start", "joining")
	send := func() { m.multicast(&msgJoinReq{GID: m.gid, From: m.st.pid}) }
	send()
	m.joinTicker = m.st.clock.Every(joinRetryInterval, send)
	m.armJoinDeadline()
}

func (m *member) armJoinDeadline() {
	m.extendJoinDeadline(joinTimeout)
}

// extendJoinDeadline postpones the fall-back-to-singleton decision, e.g.
// while a flush that admits this process is in progress.
func (m *member) extendJoinDeadline(d time.Duration) {
	if m.joinTimer != nil {
		m.joinTimer.Stop()
	}
	m.joinTimer = m.st.clock.After(d, m.formSingleton)
}

// formSingleton installs a view containing only this process, making it
// the group's first (or a partitioned-away) member. Concurrent singletons
// later merge through presence discovery.
func (m *member) formSingleton() {
	if m.state != stateJoining {
		return
	}
	v := ids.View{
		ID:      ids.ViewID{Coord: m.st.pid, Seq: m.st.nextViewSeq(m.gid)},
		Members: ids.NewMembers(m.st.pid),
	}
	m.install(v)
}

func (m *member) onJoinReq(from ids.ProcessID, _ *msgJoinReq) {
	m.heard(from)
	if m.state == stateJoining {
		return // joiners cannot admit each other
	}
	if m.view.Contains(from) {
		return // already admitted; duplicate or stale request
	}
	if m.view.Coordinator() != m.st.pid {
		return // only the operating coordinator admits joiners
	}
	m.pendingJoiners[from] = true
	m.maybeReconfigure("join")
}

// --- leaving -------------------------------------------------------------

func (m *member) requestLeave() {
	if m.state == stateJoining {
		// Not yet in any view: abort the join silently.
		m.st.trace(m.gid, "leave", "aborted join")
		m.st.dropMember(m.gid)
		return
	}
	m.leaveRequested = true
	if len(m.view.Members) <= 1 {
		m.st.trace(m.gid, "leave", "last member, dissolving")
		m.st.dropMember(m.gid)
		return
	}
	if m.view.Coordinator() == m.st.pid {
		m.maybeReconfigure("leave")
		return
	}
	m.multicast(&msgLeaveReq{GID: m.gid, From: m.st.pid})
}

func (m *member) onLeaveReq(from ids.ProcessID, _ *msgLeaveReq) {
	m.heard(from)
	if !m.view.Contains(from) {
		return
	}
	m.leavers[from] = true
	if m.state == stateNormal && m.view.Coordinator() == m.st.pid {
		m.maybeReconfigure("leave")
	}
}

// --- data path -----------------------------------------------------------

func (m *member) send(p Payload) {
	if m.state != stateNormal {
		m.pending = append(m.pending, p)
		return
	}
	m.nextSeq++
	m.st.ins.sends.Inc()
	m.multicast(&msgData{
		GID:     m.gid,
		View:    m.view.ID,
		Sender:  m.st.pid,
		Seq:     m.nextSeq,
		Payload: p,
		Acks:    m.ackSnapshot(),
	})
}

// ackSnapshot copies the delivered-sequence vector for an outgoing data
// message or heartbeat (nil when nothing was delivered yet).
func (m *member) ackSnapshot() map[ids.ProcessID]uint64 {
	if len(m.deliveredSeq) == 0 {
		return nil
	}
	vec := make(map[ids.ProcessID]uint64, len(m.deliveredSeq))
	for s, q := range m.deliveredSeq {
		vec[s] = q
	}
	return vec
}

func (m *member) onData(from ids.ProcessID, d *msgData) {
	if d.View != m.view.ID {
		return // tagged with a view this process is not in
	}
	m.heard(from)
	// Attach the envelope's wire trace context (live transport only, and
	// only the sampled minority of data envelopes). Guarding on the
	// origin keeps retransmitted copies — which re-enter via onRetrans
	// and flush fills, not here — from ever carrying a stale context.
	if tc, ok := m.st.inboundTC(); ok && tc.Origin == int64(d.Sender) {
		d.tc, d.tcOK = tc, true
	}
	m.deliverData(d)
	m.applyAckVector(d.Sender, d.Acks)
}

// deliverData performs deduplicated delivery.
func (m *member) deliverData(d *msgData) {
	k := d.key()
	if d.Seq > m.maxSeen[d.Sender] {
		m.maxSeen[d.Sender] = d.Seq
	}
	if m.isDelivered(k) {
		return
	}
	if !m.stable(k) {
		m.buffer[k] = d // somebody else in the view may still be missing it
	}
	// Maintain the flush digest: contiguous prefix per sender, plus
	// out-of-order extras (absorbed into the prefix as gaps close).
	if m.deliveredSeq[d.Sender]+1 == d.Seq {
		m.deliveredSeq[d.Sender] = d.Seq
		for {
			next := msgKey{View: d.View, Sender: d.Sender, Seq: m.deliveredSeq[d.Sender] + 1}
			if !m.extras[next] {
				break
			}
			delete(m.extras, next)
			m.deliveredSeq[d.Sender]++
		}
	} else if d.Seq > m.deliveredSeq[d.Sender] {
		m.extras[k] = true
	}
	m.appDeliver(d)
}

// appDeliver hands a message to the user. When the message arrived with
// a wire trace context it also records one-way send→deliver latency
// (wall clocks are the only cross-machine-comparable timebase; origin
// virtual times are per-node) and exposes the context to the upcall via
// Stack.InboundTC for the duration of the call.
func (m *member) appDeliver(d *msgData) {
	m.st.ins.deliveries.Inc()
	if d.tcOK && d.Sender != m.st.pid {
		lat := time.Duration(time.Now().UnixNano() - d.tc.Wall)
		if lat < 0 {
			lat = 0 // clock skew between hosts; clamp, don't poison
		}
		m.hLatency.Observe(lat)
	}
	m.st.inTC, m.st.inTCOK = d.tc, d.tcOK
	if m.st.up != nil {
		m.st.up.Data(m.gid, d.Sender, d.Payload)
	}
	m.st.inTCOK = false
}

// isDelivered reports whether message k (of the current view) was
// delivered: the flush digest is exactly the delivered set. Sequences
// start at 1, so a frame numbered 0 counts as delivered and is dropped.
func (m *member) isDelivered(k msgKey) bool {
	return k.Seq <= m.deliveredSeq[k.Sender] || m.extras[k]
}

// applyAckVector merges a cumulative acknowledgement vector from a peer
// (carried by data or a heartbeat; the caller has checked the view) and
// collects any stability it unlocks. Only a raised entry for sender s
// can move s's watermark, and the buffered copies it frees are exactly
// the keys of s numbered above stableSeq[s] and at most the new
// watermark, so collection costs O(1) per message over the view. The
// range is capped at maxSeen, since no higher message was delivered.
func (m *member) applyAckVector(from ids.ProcessID, maxSeq map[ids.ProcessID]uint64) {
	if from == m.st.pid || !m.view.Contains(from) {
		return // stable counts only the other members' vectors
	}
	vec := m.ackVectors[from]
	if vec == nil {
		vec = make(map[ids.ProcessID]uint64)
		m.ackVectors[from] = vec
	}
	for s, seq := range maxSeq {
		if vec[s] >= seq {
			continue
		}
		vec[s] = seq
		if s == from {
			continue // the sender's own entry never gates its messages
		}
		w := min(m.watermark(s), m.maxSeen[s])
		for q := m.stableSeq[s]; q < w; {
			q++
			delete(m.buffer, msgKey{View: m.view.ID, Sender: s, Seq: q})
		}
		if w > m.stableSeq[s] {
			m.stableSeq[s] = w
		}
	}
}

// stable reports whether every view member holds message k, so its
// buffered copy can go: this process and the sender trivially do, every
// other member must have acknowledged the sender up to k's sequence.
func (m *member) stable(k msgKey) bool {
	return k.Seq <= m.watermark(k.Sender)
}

// watermark is the highest sequence of sender s that every view member
// other than this process and s has acknowledged (unbounded when there
// is no such member).
func (m *member) watermark(s ids.ProcessID) uint64 {
	w := uint64(math.MaxUint64)
	for _, p := range m.view.Members {
		if p != m.st.pid && p != s {
			w = min(w, m.ackVectors[p][s])
		}
	}
	return w
}

// --- loss repair -----------------------------------------------------------

// scanGaps NACKs sequence gaps that persisted across two consecutive
// scans (one interval of grace absorbs in-flight reordering). The
// simulated bus never loses frames unless configured to; on real UDP
// this is what keeps a lost datagram from stalling delivery until the
// next view change.
func (m *member) scanGaps() {
	if m.state != stateNormal {
		m.prevGaps = make(map[msgKey]bool)
		return
	}
	const maxNackPerScan = 64
	cur := make(map[msgKey]bool)
	perTarget := make(map[ids.ProcessID][]msgKey)
	total := 0
	for _, s := range m.view.Members {
		// Ask the sender for its own messages; when WE are the sender
		// (our loopback delivery was lost), any other member that
		// delivered the message still buffers it — unstable, since we
		// never acknowledged it.
		target := s
		if s == m.st.pid {
			target = -1
			for _, p := range m.view.Members {
				if p != m.st.pid {
					target = p
					break
				}
			}
			if target < 0 {
				continue // sole member: nobody can help
			}
		}
		top := m.maxSeen[s]
		for seq := m.deliveredSeq[s] + 1; seq <= top && total < maxNackPerScan; seq++ {
			k := msgKey{View: m.view.ID, Sender: s, Seq: seq}
			if m.isDelivered(k) {
				continue
			}
			cur[k] = true
			if m.prevGaps[k] {
				perTarget[target] = append(perTarget[target], k)
				total++
			}
		}
	}
	m.prevGaps = cur
	for _, p := range m.view.Members { // deterministic emission order
		keys := perTarget[p]
		if len(keys) == 0 {
			continue
		}
		sortKeys(keys)
		m.st.ins.nacks.Inc()
		m.unicast(p, &msgNack{GID: m.gid, From: m.st.pid, Keys: keys})
	}
}

// onNack answers with buffered copies. A message the requester is missing
// cannot be stable (it never acknowledged it), so the sender still holds
// it.
func (m *member) onNack(from ids.ProcessID, n *msgNack) {
	m.heard(from)
	var msgs []*msgData
	for _, k := range n.Keys {
		if k.View != m.view.ID {
			continue
		}
		if d, ok := m.buffer[k]; ok {
			msgs = append(msgs, d)
		}
	}
	if len(msgs) > 0 {
		m.st.ins.retransMsgs.Add(int64(len(msgs)))
		m.st.traceEvent(trace.Event{
			What:  trace.HWGRetrans,
			Group: m.gid.String(),
			View:  m.view.ID,
			Src:   from,
			Text:  fmt.Sprintf("%d msgs for %v", len(msgs), from),
		})
		m.unicast(from, &msgRetrans{GID: m.gid, Msgs: msgs})
	}
}

func (m *member) onRetrans(from ids.ProcessID, r *msgRetrans) {
	m.heard(from)
	for _, d := range r.Msgs {
		if d.View == m.view.ID {
			m.deliverData(d)
		}
	}
}

// --- failure detection and presence --------------------------------------

func (m *member) heard(p ids.ProcessID) {
	if m.lastHeard != nil {
		m.lastHeard[p] = m.st.clock.Now()
	}
	if m.fdStrikes != nil {
		delete(m.fdStrikes, p)
	}
}

// onHeartbeat refreshes the failure detector only for peers that share
// this member's view: a heartbeat tagged with another view proves the
// process is alive, but not that it still participates in ours — counting
// it would mask exactly the divergence that needs repair. The same check
// guards the acknowledgement vector the heartbeat carries.
func (m *member) onHeartbeat(from ids.ProcessID, hb *msgHeartbeat) {
	if hb.View != m.view.ID {
		return
	}
	m.heard(from)
	if hb.MaxSeq > m.maxSeen[from] {
		m.maxSeen[from] = hb.MaxSeq
	}
	m.applyAckVector(from, hb.Acks)
}

func (m *member) sendHeartbeat() {
	if m.state == stateJoining {
		return
	}
	m.multicast(&msgHeartbeat{
		GID: m.gid, From: m.st.pid, View: m.view.ID, MaxSeq: m.nextSeq,
		Acks: m.ackSnapshot(),
	})
}

func (m *member) checkFailures() {
	if m.state != stateNormal {
		return
	}
	now := m.st.clock.Now()
	changed := false
	for _, p := range m.view.Members {
		if p == m.st.pid || m.suspects[p] {
			continue
		}
		if now.Sub(m.lastHeard[p]) <= FDTimeout {
			delete(m.fdStrikes, p)
			continue
		}
		m.fdStrikes[p]++
		if m.fdStrikes[p] < FDSuspectMisses {
			continue
		}
		delete(m.fdStrikes, p)
		m.suspects[p] = true
		changed = true
		m.st.ins.suspects.Inc()
		m.st.trace(m.gid, "suspect", "%v", p)
	}
	if !changed && len(m.suspects) == 0 {
		return
	}
	// The smallest non-suspected member acts as coordinator for the
	// exclusion.
	acting := ids.ProcessID(-1)
	for _, p := range m.view.Members {
		if !m.suspects[p] {
			acting = p
			break
		}
	}
	if acting == m.st.pid {
		m.maybeReconfigure("exclude")
	}
}

func (m *member) sendPresence() {
	if m.state != stateNormal || m.view.Coordinator() != m.st.pid {
		return
	}
	m.multicast(&msgPresence{GID: m.gid, View: m.view.Clone()})
}

// onPresence implements HWG-level peer discovery: when two concurrent
// views of the group can hear each other again, the coordinator with the
// smaller identifier initiates a merge (Section 4, strategy point 1).
// Discovered views accumulate in knownPeers so one flush can absorb
// several concurrent views at once.
func (m *member) onPresence(from ids.ProcessID, p *msgPresence) {
	if p.View.ID == m.view.ID {
		m.heard(from)
	}
	if m.view.ID.IsZero() || m.view.Coordinator() != m.st.pid {
		return
	}
	w := p.View
	if w.ID == m.view.ID {
		return
	}
	if m.view.Contains(from) {
		return // stale presence from a view already merged into ours
	}
	if w.Contains(m.st.pid) {
		return // stale presence of a view this process has since left
	}
	// Concurrent views never share members, so a fresh announcement of w
	// proves any known view overlapping it is stale. Purging here matters:
	// a stale superset (e.g. one still listing a crashed process) would
	// otherwise both swallow w in mergePeers' subset hygiene and defer
	// merge initiation to a coordinator that no longer exists.
	for vid, kw := range m.knownPeers {
		if vid != w.ID && len(kw.Members.Intersect(w.Members)) > 0 {
			delete(m.knownPeers, vid)
		}
	}
	if _, seen := m.knownPeers[w.ID]; !seen {
		m.st.trace(m.gid, "discover", "concurrent view %v", w)
	}
	m.knownPeers[w.ID] = w.Clone()
	m.mergePeers()
}

// --- timers --------------------------------------------------------------

// startTimers arms the periodic protocol timers after the first install.
// Heartbeat phases are staggered per (group, process) so that unrelated
// groups do not beat in lockstep.
func (m *member) startTimers() {
	if m.hbTicker != nil {
		return
	}
	phase := time.Duration((int64(m.gid)*131 + int64(m.st.pid)*17) % int64(HeartbeatInterval))
	m.st.clock.After(phase, func() {
		if m.hbTicker != nil {
			return
		}
		if _, ok := m.st.groups[m.gid]; !ok {
			return
		}
		m.hbTicker = m.st.clock.Every(HeartbeatInterval, m.sendHeartbeat)
		m.fdTicker = m.st.clock.Every(FDCheckInterval, m.checkFailures)
		m.presTicker = m.st.clock.Every(presenceInterval, m.sendPresence)
		m.nackTicker = m.st.clock.Every(nackInterval, m.scanGaps)
	})
}

func (m *member) stopTimers() {
	for _, t := range []*sim.Ticker{m.hbTicker, m.fdTicker, m.presTicker, m.nackTicker, m.joinTicker} {
		if t != nil {
			t.Stop()
		}
	}
	m.hbTicker, m.fdTicker, m.presTicker, m.nackTicker, m.joinTicker =
		nil, nil, nil, nil, nil
	for _, t := range []*sim.Timer{m.joinTimer, m.respTimer} {
		if t != nil {
			t.Stop()
		}
	}
	m.joinTimer, m.respTimer = nil, nil
	if m.joinCommitTimer != nil {
		m.joinCommitTimer.Stop()
		m.joinCommitTimer = nil
	}
	if m.rc != nil {
		if m.rc.timer != nil {
			m.rc.timer.Stop()
		}
		m.rc = nil
	}
}

// --- view installation ---------------------------------------------------

// install makes v the current view: per-view state is reset, pending
// sends drain into the new view, and the View upcall fires.
func (m *member) install(v ids.View) {
	if m.joinTicker != nil {
		m.joinTicker.Stop()
		m.joinTicker = nil
	}
	if m.joinTimer != nil {
		m.joinTimer.Stop()
		m.joinTimer = nil
	}
	if m.respTimer != nil {
		m.respTimer.Stop()
		m.respTimer = nil
	}
	if m.joinCommitTimer != nil {
		m.joinCommitTimer.Stop()
		m.joinCommitTimer = nil
	}
	m.joinCommit = epoch{}
	// A competing round supersedes any round of our own; void it so its
	// responders resume immediately.
	m.abortRound()
	m.state = stateNormal
	m.view = v.Clone()
	m.stopPending = false
	m.stopEpoch = epoch{}
	m.nextSeq = 0
	m.buffer = make(map[msgKey]*msgData)
	m.ackVectors = make(map[ids.ProcessID]map[ids.ProcessID]uint64)
	m.stableSeq = make(map[ids.ProcessID]uint64)
	m.deliveredSeq = make(map[ids.ProcessID]uint64)
	m.extras = make(map[msgKey]bool)
	m.maxSeen = make(map[ids.ProcessID]uint64)
	m.prevGaps = make(map[msgKey]bool)
	m.lastHeard = make(map[ids.ProcessID]sim.Time, len(v.Members))
	now := m.st.clock.Now()
	for _, p := range v.Members {
		m.lastHeard[p] = now
	}
	m.fdStrikes = make(map[ids.ProcessID]int)
	m.suspects = make(map[ids.ProcessID]bool)
	for p := range m.pendingJoiners {
		if v.Contains(p) {
			delete(m.pendingJoiners, p)
		}
	}
	for p := range m.leavers {
		if !v.Contains(p) {
			delete(m.leavers, p)
		}
	}
	if v.ID.Coord == m.st.pid {
		m.st.observeViewSeq(m.gid, v.ID.Seq)
	}
	m.st.ins.viewInstalls.Inc()
	m.st.traceEvent(trace.Event{
		What:    trace.HWGViewInstall,
		Text:    fmt.Sprintf("%v: %v%s", m.gid, v.ID, v.Members),
		Group:   m.gid.String(),
		View:    v.ID,
		Members: v.Members.Clone(),
	})
	m.startTimers()

	if m.st.up != nil {
		m.st.up.View(m.gid, v.Clone())
	}
	// Drain sends buffered during the change; they are (re)sent in the
	// new view, preserving view-tagged delivery.
	pend := m.pending
	m.pending = nil
	for _, p := range pend {
		m.send(p)
	}
	// Serve joins and leaves that arrived while the flush was running.
	if (len(m.pendingJoiners) > 0 || len(m.leavers) > 0) && m.view.Coordinator() == m.st.pid {
		m.maybeReconfigure("join/leave")
	}
	// Keep merging concurrent views discovered during the change.
	m.mergePeers()
}

// sortKeys orders message keys deterministically.
func sortKeys(ks []msgKey) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.View != b.View {
			return a.View.Less(b.View)
		}
		if a.Sender != b.Sender {
			return a.Sender < b.Sender
		}
		return a.Seq < b.Seq
	})
}

// sortedFlushData orders retransmissions deterministically.
func sortedFlushData(in map[msgKey]*msgData) []*msgData {
	out := make([]*msgData, 0, len(in))
	for _, d := range in {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.View != b.View {
			return a.View.Less(b.View)
		}
		if a.Sender != b.Sender {
			return a.Sender < b.Sender
		}
		return a.Seq < b.Seq
	})
	return out
}
