package vsync

import (
	"fmt"

	"plwg/internal/ids"
	"plwg/internal/trace"
)

// This file implements the view-change (flush) protocol.
//
// Initiator side: maybeReconfigure/mergeWith build a reconfig round,
// multicast STOP, collect FLUSH-OK from every expected responder, then
// multicast NEW-VIEW carrying the union of unstable messages per old view.
//
// Responder side: onStop quiesces the member (through the Stop upcall and
// StopOk downcall, per Table 1), onNewView delivers the retransmission
// set for the member's old view and installs the new one.
//
// Competing initiators are resolved deterministically: a stopped member
// defects to a STOP from a lower-numbered initiator, and an initiator
// aborts its own round when it finds itself stopped by a lower-numbered
// one. Unresponsive initiators are survived via responderTimeout.

// traceRound emits a structured flush-round event. Every event of one
// round — the initiator's flush-start/flush-done and each responder's
// stopped/stop-ok — carries (Group, Ref=epoch), the cross-node
// correlation key trace.Stitch reassembles the round from.
func (m *member) traceRound(what string, e epoch, format string, args ...any) {
	m.st.traceEvent(trace.Event{
		What:  what,
		Group: m.gid.String(),
		View:  m.view.ID,
		Ref:   e.String(),
		Text:  fmt.Sprintf(format, args...),
	})
}

// maybeReconfigure starts a view change over the member's own view,
// excluding current suspects, removing pending leavers and admitting
// pending joiners. It is a no-op unless the member is in a steady state
// with no round in flight (pending triggers re-fire after the install).
func (m *member) maybeReconfigure(reason string) {
	if m.state != stateNormal || m.rc != nil {
		return
	}
	targets := map[ids.ViewID]ids.Members{
		m.view.ID: m.liveMembers(),
	}
	m.startRound(reason, targets)
}

// mergePeers starts a view change merging the member's own view with
// every concurrent view discovered through presence announcements for
// which this process is the designated initiator (the lower coordinator
// initiates, so concurrent views agree on who merges whom without
// coordination).
func (m *member) mergePeers() {
	if m.state != stateNormal || m.rc != nil || m.view.Coordinator() != m.st.pid {
		return
	}
	targets := map[ids.ViewID]ids.Members{
		m.view.ID: m.liveMembers(),
	}
	// Hygiene: a known view whose members are all inside another known
	// (or our own) view is stale — concurrent views never share members.
	for vid, w := range m.knownPeers {
		if vid == m.view.ID || w.Members.SubsetOf(m.view.Members) {
			delete(m.knownPeers, vid)
			continue
		}
		for vid2, w2 := range m.knownPeers {
			if vid != vid2 && w.Members.SubsetOf(w2.Members) && len(w.Members) < len(w2.Members) {
				delete(m.knownPeers, vid)
				break
			}
		}
	}
	merging := false
	for vid, w := range m.knownPeers {
		if m.st.pid >= w.Coordinator() {
			continue // the other coordinator initiates
		}
		targets[vid] = w.Members.Clone()
		// Consume the entry now: if the merge fails (the view is gone or
		// absorbed elsewhere), a fresh presence will re-add a live one;
		// keeping it would retrigger merges with a stale target forever.
		delete(m.knownPeers, vid)
		merging = true
	}
	if merging {
		m.startRound("merge", targets)
	}
}

// liveMembers returns the member's view minus current suspects.
func (m *member) liveMembers() ids.Members {
	out := make(ids.Members, 0, len(m.view.Members))
	for _, p := range m.view.Members {
		if !m.suspects[p] {
			out = append(out, p)
		}
	}
	return out
}

func (m *member) startRound(reason string, targets map[ids.ViewID]ids.Members) {
	joiners := make(ids.Members, 0, len(m.pendingJoiners))
	for p := range m.pendingJoiners {
		joiners = append(joiners, p)
	}
	joiners = ids.NewMembers(joiners...)

	rc := &reconfig{
		epoch:     m.st.nextEpoch(),
		startedAt: m.st.clock.Now(),
		targets:   targets,
		joiners:   joiners,
		got:       make(map[ids.ProcessID]*msgFlushOk),
	}
	rc.expected = joiners
	for _, mm := range targets {
		rc.expected = rc.expected.Union(mm)
	}
	m.rc = rc
	m.st.ins.flushRounds.Inc()
	m.traceRound(trace.HWGFlushStart, rc.epoch, "%s targets=%d expected=%s",
		reason, len(targets), rc.expected)
	m.sendStop()
}

func (m *member) sendStop() {
	rc := m.rc
	tids := make(ids.ViewIDs, 0, len(rc.targets))
	for vid := range rc.targets {
		tids = append(tids, vid)
	}
	ids.SortViewIDs(tids)
	m.multicast(&msgStop{GID: m.gid, Epoch: rc.epoch, Targets: tids, Joiners: rc.joiners})
	if rc.timer != nil {
		rc.timer.Stop()
	}
	rc.timer = m.st.clock.After(flushTimeout, m.onFlushTimeout)
}

func (m *member) onFlushTimeout() {
	rc := m.rc
	if rc == nil {
		return
	}
	// If a lower-numbered initiator has stopped us meanwhile, yield.
	if m.state == stateStopped && m.stopEpoch.Initiator < m.st.pid {
		m.st.trace(m.gid, "flush-yield", "to %v", m.stopEpoch)
		m.abortRound()
		return
	}
	rc.attempts++
	if rc.attempts >= maxFlushAttempts {
		m.st.ins.flushAborts.Inc()
		m.st.trace(m.gid, "flush-abort", "epoch=%v after %d attempts", rc.epoch, rc.attempts)
		m.abortRound()
		return
	}
	// Exclude non-responders: suspects in our own view; shrink or drop
	// merge targets.
	newTargets := make(map[ids.ViewID]ids.Members, len(rc.targets))
	for vid, mm := range rc.targets {
		var resp ids.Members
		for _, p := range mm {
			if rc.got[p] != nil {
				resp = append(resp, p)
			} else if vid == m.view.ID && p != m.st.pid {
				m.suspects[p] = true
				m.st.trace(m.gid, "suspect", "%v (no flush-ok)", p)
			}
		}
		if vid == m.view.ID {
			resp = ids.NewMembers(append(resp, m.st.pid)...)
		}
		if len(resp) > 0 {
			newTargets[vid] = resp
		}
	}
	var joiners ids.Members
	for _, p := range rc.joiners {
		if f := rc.got[p]; f != nil && f.Joining {
			joiners = append(joiners, p)
		} else {
			// The joiner lost interest (typically: another view admitted
			// it); forget the request or we would reconfigure forever.
			delete(m.pendingJoiners, p)
		}
	}
	rc.epoch = m.st.nextEpoch()
	rc.targets = newTargets
	rc.joiners = ids.NewMembers(joiners...)
	rc.got = make(map[ids.ProcessID]*msgFlushOk)
	rc.pulling = false
	rc.wanted = nil
	rc.expected = rc.joiners
	for _, mm := range newTargets {
		rc.expected = rc.expected.Union(mm)
	}
	m.st.trace(m.gid, "flush-retry", "epoch=%v expected=%s", rc.epoch, rc.expected)
	m.sendStop()
}

// abortRound voids the in-flight round and tells its responders to resume
// immediately (the initiator itself resumes through the abort's loopback).
func (m *member) abortRound() {
	rc := m.rc
	if rc == nil {
		return
	}
	m.rc = nil
	if rc.timer != nil {
		rc.timer.Stop()
	}
	m.multicast(&msgAbort{GID: m.gid, Epoch: rc.epoch})
}

func (m *member) onAbort(_ ids.ProcessID, a *msgAbort) {
	if m.state == stateJoining && m.joinCommit == a.Epoch {
		m.joinCommit = epoch{}
		return
	}
	if m.state == stateStopped && m.stopEpoch == a.Epoch {
		m.st.trace(m.gid, "flush-resume", "round %v aborted", a.Epoch)
		m.resumeView("round aborted")
	}
}

// --- responder side -------------------------------------------------------

func (m *member) onStop(from ids.ProcessID, s *msgStop) {
	m.heard(from)
	switch m.state {
	case stateJoining:
		if !s.Joiners.Contains(m.st.pid) {
			return
		}
		// Commit to one admission round at a time (defecting only to a
		// lower-numbered initiator or a retry of the committed one);
		// answering several concurrent rounds would let multiple
		// coordinators install views all claiming this joiner.
		cur := m.joinCommit
		switch {
		case cur == epoch{}:
		case s.Epoch.Initiator == cur.Initiator && s.Epoch.N >= cur.N:
		case s.Epoch.Initiator < cur.Initiator:
		default:
			return
		}
		m.joinCommit = s.Epoch
		if m.joinCommitTimer != nil {
			m.joinCommitTimer.Stop()
		}
		m.joinCommitTimer = m.st.clock.After(responderTimeout, func() {
			m.joinCommit = epoch{}
		})
		// A flush admitting us is in progress: answer and give it time
		// (including retries) before falling back to a singleton view.
		m.extendJoinDeadline(responderTimeout)
		m.unicast(s.Epoch.Initiator, &msgFlushOk{
			GID: m.gid, Epoch: s.Epoch, From: m.st.pid, Joining: true,
		})
	case stateNormal:
		if !s.Targets.Contains(m.view.ID) {
			return
		}
		m.enterStopped(s.Epoch)
	case stateStopped:
		if !s.Targets.Contains(m.view.ID) {
			return
		}
		cur := m.stopEpoch
		sameInitiatorRetry := s.Epoch.Initiator == cur.Initiator && s.Epoch.N > cur.N
		lowerInitiator := s.Epoch.Initiator < cur.Initiator
		if !sameInitiatorRetry && !lowerInitiator {
			return
		}
		m.stopEpoch = s.Epoch
		m.st.trace(m.gid, "flush-adopt", "epoch=%v", s.Epoch)
		if !m.stopPending {
			m.sendFlushOk()
		}
	}
}

func (m *member) enterStopped(e epoch) {
	m.traceRound("stopped", e, "by %v", e.Initiator)
	m.state = stateStopped
	m.stopEpoch = e
	if m.respTimer != nil {
		m.respTimer.Stop()
	}
	m.respTimer = m.st.clock.After(responderTimeout, m.onResponderTimeout)
	if m.st.up == nil {
		m.sendFlushOk()
		return
	}
	m.stopPending = true
	m.st.up.Stop(m.gid)
}

func (m *member) stopOk() error {
	if !m.stopPending {
		return ErrNoStopPending
	}
	m.traceRound("stop-ok", m.stopEpoch, "app quiesced")
	m.stopPending = false
	m.sendFlushOk()
	return nil
}

// sendFlushOk reports this member's flush contribution to the initiator:
// a digest of its deliveries in the current view.
func (m *member) sendFlushOk() {
	digest := make(map[ids.ProcessID]uint64, len(m.deliveredSeq))
	for s, q := range m.deliveredSeq {
		digest[s] = q
	}
	extras := make([]msgKey, 0, len(m.extras))
	for k := range m.extras {
		extras = append(extras, k)
	}
	sortKeys(extras)
	m.unicast(m.stopEpoch.Initiator, &msgFlushOk{
		GID:     m.gid,
		Epoch:   m.stopEpoch,
		From:    m.st.pid,
		View:    m.view.ID,
		Leaving: m.leaveRequested,
		Digest:  digest,
		Extras:  extras,
	})
}

// onResponderTimeout fires when a stopped member has waited too long for
// the NEW-VIEW: the initiator is presumed dead, the member resumes its old
// view and lets failure detection and peer discovery repair membership.
func (m *member) onResponderTimeout() {
	if m.state != stateStopped {
		return
	}
	m.st.trace(m.gid, "flush-resume", "initiator %v silent", m.stopEpoch.Initiator)
	m.resumeView("initiator silent")
}

// resumeView returns a stopped member to normal operation in its current
// view, re-announcing the view upward as a restart signal.
func (m *member) resumeView(why string) {
	m.state = stateNormal
	m.stopEpoch = epoch{}
	m.stopPending = false
	if m.respTimer != nil {
		m.respTimer.Stop()
		m.respTimer = nil
	}
	_ = why
	if m.st.up != nil {
		m.st.up.View(m.gid, m.view.Clone())
	}
	pend := m.pending
	m.pending = nil
	for _, p := range pend {
		m.send(p)
	}
}

// --- completion -----------------------------------------------------------

func (m *member) onFlushOk(from ids.ProcessID, f *msgFlushOk) {
	m.heard(from)
	rc := m.rc
	if rc == nil || f.Epoch != rc.epoch || rc.pulling {
		return
	}
	if !rc.expected.Contains(from) {
		return
	}
	rc.got[from] = f
	for _, p := range rc.expected {
		if rc.got[p] == nil {
			return
		}
	}
	m.collectGaps()
}

// collectGaps compares the responders' digests per old view, computes the
// delivery cut, and pulls copies of the messages some responder is
// missing. With no gaps (the common case on the totally ordered bus) the
// round completes immediately.
func (m *member) collectGaps() {
	rc := m.rc
	// needed maps each gap message to the responder it will be pulled
	// from.
	needed := make(map[msgKey]ids.ProcessID)
	for vid, members := range rc.targets {
		var resp []*msgFlushOk
		for _, p := range members {
			if f := rc.got[p]; f != nil && f.View == vid {
				resp = append(resp, f)
			}
		}
		if len(resp) < 2 {
			continue // nobody to diverge from
		}
		cut := make(map[ids.ProcessID]uint64)
		extras := make(map[msgKey]bool)
		for _, f := range resp {
			for s, q := range f.Digest {
				if q > cut[s] {
					cut[s] = q
				}
			}
			for _, k := range f.Extras {
				extras[k] = true
			}
		}
		covered := func(f *msgFlushOk, k msgKey) bool {
			if f.Digest[k.Sender] >= k.Seq {
				return true
			}
			for _, e := range f.Extras {
				if e == k {
					return true
				}
			}
			return false
		}
		addNeeded := func(k msgKey) {
			if _, ok := needed[k]; ok {
				return
			}
			for _, h := range resp { // resp is in member order: deterministic
				if covered(h, k) {
					needed[k] = h.From
					return
				}
			}
		}
		for _, f := range resp {
			for s, q := range cut {
				for seq := f.Digest[s] + 1; seq <= q; seq++ {
					k := msgKey{View: vid, Sender: s, Seq: seq}
					if !covered(f, k) {
						addNeeded(k)
					}
				}
			}
			for k := range extras {
				if !covered(f, k) {
					addNeeded(k)
				}
			}
		}
	}
	if len(needed) == 0 {
		m.finishRound(nil)
		return
	}
	// Pull phase: group the wanted keys per holder.
	rc.pulling = true
	rc.wanted = make(map[msgKey]*msgData, len(needed))
	perHolder := make(map[ids.ProcessID][]msgKey)
	for k, h := range needed {
		rc.wanted[k] = nil
		perHolder[h] = append(perHolder[h], k)
	}
	m.st.trace(m.gid, "flush-pull", "epoch=%v pulling %d gap messages from %d holders",
		rc.epoch, len(needed), len(perHolder))
	holders := make(ids.Members, 0, len(perHolder))
	for h := range perHolder {
		holders = append(holders, h)
	}
	holders = ids.NewMembers(holders...) // deterministic emission order
	for _, h := range holders {
		keys := perHolder[h]
		sortKeys(keys)
		m.unicast(h, &msgFlushPull{GID: m.gid, Epoch: rc.epoch, Keys: keys})
	}
	// Restart the round timer for the pull phase.
	if rc.timer != nil {
		rc.timer.Stop()
	}
	rc.timer = m.st.clock.After(flushTimeout, m.onFlushTimeout)
}

// onFlushPull serves buffered copies of the requested messages.
func (m *member) onFlushPull(from ids.ProcessID, p *msgFlushPull) {
	m.heard(from)
	fill := &msgFlushFill{GID: m.gid, Epoch: p.Epoch, From: m.st.pid}
	for _, k := range p.Keys {
		if d, ok := m.buffer[k]; ok {
			fill.Msgs = append(fill.Msgs, d)
		}
	}
	m.unicast(from, fill)
}

func (m *member) onFlushFill(from ids.ProcessID, f *msgFlushFill) {
	m.heard(from)
	rc := m.rc
	if rc == nil || !rc.pulling || f.Epoch != rc.epoch {
		return
	}
	for _, d := range f.Msgs {
		k := d.key()
		if cur, wanted := rc.wanted[k]; wanted && cur == nil {
			rc.wanted[k] = d
		}
	}
	for _, d := range rc.wanted {
		if d == nil {
			return
		}
	}
	m.finishRound(rc.wanted)
}

// finishRound installs the outcome: the new view plus the gap
// retransmissions every survivor needs to close its old view on the
// identical delivery set (view synchrony).
func (m *member) finishRound(fills map[msgKey]*msgData) {
	rc := m.rc
	m.rc = nil
	if rc.timer != nil {
		rc.timer.Stop()
	}

	var members ids.Members
	for _, p := range rc.expected {
		f := rc.got[p]
		if f.Leaving || m.pendingLeaver(p) {
			continue
		}
		members = append(members, p)
	}
	members = ids.NewMembers(members...)

	prev := make(ids.ViewIDs, 0, len(rc.targets))
	for vid := range rc.targets {
		prev = append(prev, vid)
	}
	ids.SortViewIDs(prev)

	var flushData []*msgData
	if len(fills) > 0 {
		flushData = sortedFlushData(fills)
	}
	nv := &msgNewView{
		GID:   m.gid,
		Epoch: rc.epoch,
		View: ids.View{
			ID:      ids.ViewID{Coord: m.st.pid, Seq: m.st.nextViewSeq(m.gid)},
			Members: members,
		},
		PrevViews: prev,
		FlushData: flushData,
	}
	m.st.ins.flushDur.Observe(m.st.clock.Now().Sub(rc.startedAt))
	m.st.traceEvent(trace.Event{
		What:    trace.HWGFlushDone,
		Group:   m.gid.String(),
		View:    nv.View.ID,
		Ref:     rc.epoch.String(),
		Members: nv.View.Members.Clone(),
		Text:    fmt.Sprintf("newview=%v%s retrans=%d", nv.View.ID, nv.View.Members, len(nv.FlushData)),
	})
	m.multicast(nv)
}

// pendingLeaver reports whether p asked to leave through a LEAVE-REQ this
// coordinator has seen (its FLUSH-OK may predate the request).
func (m *member) pendingLeaver(p ids.ProcessID) bool {
	return m.leavers != nil && m.leavers[p]
}

func (m *member) onNewView(from ids.ProcessID, nv *msgNewView) {
	m.heard(from)
	switch m.state {
	case stateJoining:
		if nv.View.Contains(m.st.pid) {
			m.install(nv.View)
		}
	case stateNormal, stateStopped:
		if !nv.PrevViews.Contains(m.view.ID) {
			return
		}
		// Close the old view: deliver the retransmitted messages that
		// belong to it and that we have not delivered yet.
		for _, d := range nv.FlushData {
			if d.View == m.view.ID {
				m.deliverData(d)
			}
		}
		switch {
		case nv.View.Contains(m.st.pid):
			m.install(nv.View)
		case m.leaveRequested:
			m.st.trace(m.gid, "left", "via %v", nv.View.ID)
			m.st.dropMember(m.gid)
		default:
			// Excluded without asking to leave (false suspicion or a
			// partition): continue in a singleton view; peer discovery
			// merges us back when connectivity allows (partitionable
			// semantics).
			m.st.trace(m.gid, "excluded", "from %v, forming singleton", nv.View.ID)
			m.install(ids.View{
				ID:      ids.ViewID{Coord: m.st.pid, Seq: m.st.nextViewSeq(m.gid)},
				Members: ids.NewMembers(m.st.pid),
			})
		}
	}
}
