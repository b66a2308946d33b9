package core

import (
	"fmt"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/naming"
	"plwg/internal/policy"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// lwgState is the per-LWG protocol state of a member process.
type lwgState int

const (
	// lwgResolving: consulting the naming service for a mapping (and
	// possibly racing to create one).
	lwgResolving lwgState = iota + 1
	// lwgJoining: member of the mapped HWG, requesting admission into
	// the LWG view.
	lwgJoining
	// lwgActive: a LWG view is installed and traffic flows.
	lwgActive
	// lwgStopped: a LWG-level flush is in progress (sends are buffered).
	lwgStopped
	// lwgSwitching: re-mapping onto another HWG (sends are buffered).
	lwgSwitching
)

// lwgMember is the per-(process, LWG) protocol instance.
type lwgMember struct {
	e  *Endpoint
	id ids.LWGID

	state lwgState
	hwg   ids.HWGID
	view  ids.View
	// ancestors is the full strict-ancestor set of view, maintained so
	// concurrency can be decided locally and reported to the naming
	// service.
	ancestors ids.ViewIDs

	pendingSends [][]byte

	// preInstall buffers data received while resolving/joining, stamped
	// with views not yet installed (the admission announcement can lose
	// the race against the first data sent in the new view when the
	// joiner was not in the announcing vsync view). Replayed at install.
	preInstall []pendingData

	// Join machinery.
	proposedView ids.View // the singleton view offered to ns.testset
	foundNow     bool     // we won the creation race: found on HWG view
	joinTicker   *sim.Ticker
	joinTimer    *sim.Timer
	nsTimer      *sim.Timer

	// Coordinator-side LWG flush.
	fl             *lwgFlushRound
	pendingJoiners map[ids.ProcessID]bool
	pendingLeavers map[ids.ProcessID]bool
	// pendingRejoiners are processes already listed in the current view
	// that nevertheless requested admission: their stale membership was
	// carried into this view by a merge while they were still resolving,
	// so they missed any traffic the view has already carried. They are
	// served by cutting a fresh view (same members, new boundary) so
	// their delivery obligations start where their buffering did.
	pendingRejoiners map[ids.ProcessID]bool

	// seenTraffic reports whether any data has been delivered in the
	// current view; reset at every install. A quiet view is safe to
	// re-announce to a rejoiner — there is nothing it can have missed.
	seenTraffic bool

	// Leave intent of this process.
	leaveRequested bool
	leaveTicker    *sim.Ticker

	// Switching.
	switchTarget ids.HWGID
	switchTicker *sim.Ticker
	// sw is coordinator-side switch state (ready-collection).
	sw *switchRound

	// hLatency is the LWG-level one-way send→deliver latency histogram,
	// fed by wire trace contexts surviving through the HWG delivery path
	// (resolved once at membership creation; nil with metrics disabled,
	// and a nil instrument no-ops).
	hLatency *metrics.Histo
}

// lwgFlushRound is the coordinator-side state of one LWG-level flush.
type lwgFlushRound struct {
	view     ids.ViewID
	expected ids.Members
	got      map[ids.ProcessID]bool
	timer    *sim.Timer
	attempts int
	onDone   func()
}

// pendingData is one buffered pre-install data message.
type pendingData struct {
	src ids.ProcessID
	msg *lwgData
}

// switchRound is the coordinator-side state of one switching protocol
// run.
type switchRound struct {
	target ids.HWGID
	ready  map[ids.ProcessID]bool
	sent   bool // lwgView already announced on the target
}

func newLwgMember(e *Endpoint, id ids.LWGID) *lwgMember {
	return &lwgMember{
		e:                e,
		id:               id,
		pendingJoiners:   make(map[ids.ProcessID]bool),
		pendingLeavers:   make(map[ids.ProcessID]bool),
		pendingRejoiners: make(map[ids.ProcessID]bool),
		hLatency:         e.reg.Histogram("lwg_oneway_latency", metrics.L("lwg", string(id))),
	}
}

func (m *lwgMember) stopTimers() {
	for _, tk := range []*sim.Ticker{m.joinTicker, m.leaveTicker, m.switchTicker} {
		if tk != nil {
			tk.Stop()
		}
	}
	m.joinTicker, m.leaveTicker, m.switchTicker = nil, nil, nil
	for _, tm := range []*sim.Timer{m.joinTimer, m.nsTimer} {
		if tm != nil {
			tm.Stop()
		}
	}
	m.joinTimer, m.nsTimer = nil, nil
	if m.fl != nil {
		if m.fl.timer != nil {
			m.fl.timer.Stop()
		}
		m.fl = nil
	}
}

// isCoordinator reports whether this process coordinates the current LWG
// view.
func (m *lwgMember) isCoordinator() bool {
	return len(m.view.Members) > 0 && m.view.Coordinator() == m.e.pid
}

// actsAsCoordinator reports whether this process should drive the LWG
// reconfiguration protocol. Normally that is the view coordinator (the
// minimum member), which this subsumes. But when every member ahead of us
// is itself a pending leaver the real coordinator cannot be relied on to
// run the flush: a phantom resurrected by a merge (see maybeRepudiate)
// repudiates with a leave request yet holds no member state, so if the
// phantom is the minimum pid nobody would ever reconfigure — the view
// keeps the phantom forever and the mapping is never refreshed. The
// lowest member not pending leave steps in; the rule is deterministic, so
// at most one live process acts per view.
func (m *lwgMember) actsAsCoordinator() bool {
	for _, p := range m.view.Members {
		if p == m.e.pid {
			return true
		}
		if !m.pendingLeavers[p] {
			return false
		}
	}
	return false
}

// --- public downcalls ------------------------------------------------------

// Join starts joining the light-weight group: the mapping is resolved (or
// created) through the naming service, the process joins the mapped HWG
// if necessary, and the LWG join protocol admits it into the LWG view.
// The outcome arrives through the View upcall.
func (e *Endpoint) Join(lwg ids.LWGID) error {
	if _, ok := e.lwgs[lwg]; ok {
		return ErrAlreadyMember
	}
	m := newLwgMember(e, lwg)
	e.lwgs[lwg] = m
	m.state = lwgResolving
	e.ins.joins.Inc()
	e.updateGauges()
	e.trace("join", "%s: resolving mapping", lwg)
	m.resolveMapping()
	return nil
}

// Leave starts leaving the light-weight group.
func (e *Endpoint) Leave(lwg ids.LWGID) error {
	m, ok := e.lwgs[lwg]
	if !ok {
		return ErrNotMember
	}
	e.ins.leaves.Inc()
	m.requestLeave()
	return nil
}

// Send multicasts data to the light-weight group. While a flush, switch
// or view change is in progress the message is buffered and sent in the
// next stable state, stamped with the then-current LWG view.
func (e *Endpoint) Send(lwg ids.LWGID, data []byte) error {
	m, ok := e.lwgs[lwg]
	if !ok {
		return ErrNotMember
	}
	m.send(data)
	return nil
}

func (m *lwgMember) send(data []byte) {
	st := m.e.hwgs[m.hwg]
	if m.state != lwgActive || st == nil || st.stopped {
		m.pendingSends = append(m.pendingSends, data)
		return
	}
	msg := &lwgData{LWG: m.id, View: m.view.ID, Data: data}
	// Batched payloads are traced as sent when the batch flushes — a
	// requeue can still re-stamp them under a later view before then.
	m.e.enqueueBatch(st, msg)
}

func (m *lwgMember) drainSends() {
	if m.state != lwgActive {
		return
	}
	pend := m.pendingSends
	m.pendingSends = nil
	for _, d := range pend {
		m.send(d)
	}
}

// --- mapping resolution ----------------------------------------------------

// resolveMapping implements the creation-time mapping (Section 3.2): read
// the naming service; join the mapped HWG if a mapping exists, otherwise
// optimistically propose one (an existing HWG of this process, or a fresh
// one) via ns.testset.
func (m *lwgMember) resolveMapping() {
	e := m.e
	e.ns.ReadLive(m.id, func(entries []naming.Entry, ok bool) {
		if e.lwgs[m.id] != m || m.state != lwgResolving {
			return
		}
		if !ok {
			m.nsTimer = e.clock.After(nsRetryInterval, m.resolveMapping)
			return
		}
		if len(entries) > 0 {
			m.targetHWG(naming.PreferredHWG(entries))
			return
		}
		m.proposeMapping()
	})
}

func (m *lwgMember) proposeMapping() {
	e := m.e
	// Optimistic rule: assume the new LWG resembles an existing group and
	// map it onto a HWG the creator already belongs to; create a fresh
	// HWG only when there is none.
	pick := policy.PickInitialHWG(e.knownHWGs())
	fresh := false
	if pick == ids.NoHWG {
		pick = e.allocHWGID()
		fresh = true
	}
	m.proposedView = ids.View{
		ID:      ids.ViewID{Coord: e.pid, Seq: e.nextLwgSeq(m.id)},
		Members: ids.NewMembers(e.pid),
	}
	entry := naming.Entry{
		LWG:       m.id,
		View:      m.proposedView.ID,
		HWG:       pick,
		Ver:       e.nextVer(),
		Refreshed: int64(e.clock.Now()),
	}
	e.ns.TestSet(entry, func(entries []naming.Entry, ok bool) {
		if e.lwgs[m.id] != m || m.state != lwgResolving {
			return
		}
		if !ok {
			m.nsTimer = e.clock.After(nsRetryInterval, m.resolveMapping)
			return
		}
		won := false
		for _, got := range entries {
			if got.View == m.proposedView.ID {
				won = true
				break
			}
		}
		if won {
			e.trace("create", "%s: founding on %v (fresh=%v)", m.id, pick, fresh)
			m.foundNow = true
			m.hwg = pick
			m.state = lwgJoining
			m.ensureHWGMembership(pick, fresh)
			m.maybeFound()
			return
		}
		// Lost the race: join whoever won.
		m.targetHWG(naming.PreferredHWG(entries))
	})
}

// targetHWG directs the join at the heavy-weight group the naming service
// mapped the LWG onto.
func (m *lwgMember) targetHWG(gid ids.HWGID) {
	e := m.e
	if gid == ids.NoHWG {
		m.nsTimer = e.clock.After(nsRetryInterval, m.resolveMapping)
		return
	}
	m.hwg = gid
	m.state = lwgJoining
	e.trace("join", "%s: mapped on %v, requesting admission", m.id, gid)
	m.ensureHWGMembership(gid, false)
	m.joinTicker = e.clock.Every(joinRetryInterval, m.sendJoinReq)
	m.sendJoinReq()
	m.joinTimer = e.clock.After(lwgJoinTimeout, m.joinTimedOut)
}

func (m *lwgMember) ensureHWGMembership(gid ids.HWGID, fresh bool) {
	e := m.e
	e.hwgState(gid) // materialize bookkeeping
	if e.hwg.IsMember(gid) {
		return
	}
	if fresh {
		_ = e.hwg.Create(gid)
		return
	}
	_ = e.hwg.Join(gid)
}

func (m *lwgMember) sendJoinReq() {
	if m.state != lwgJoining {
		return
	}
	if _, ok := m.e.hwg.CurrentView(m.hwg); !ok {
		return // not yet a member of the HWG
	}
	m.e.hwgSend(m.hwg, &lwgJoinReq{LWG: m.id, From: m.e.pid})
}

// joinTimedOut fires when no LWG view admitted us: the mapping was stale
// (the members are gone or unreachable). Found our own view on the mapped
// HWG; if concurrent views exist elsewhere, reconciliation merges them
// later.
func (m *lwgMember) joinTimedOut() {
	if m.state != lwgJoining || m.foundNow {
		return
	}
	e := m.e
	e.trace("join", "%s: admission timed out, founding own view on %v", m.id, m.hwg)
	m.proposedView = ids.View{
		ID:      ids.ViewID{Coord: e.pid, Seq: e.nextLwgSeq(m.id)},
		Members: ids.NewMembers(e.pid),
	}
	m.foundNow = true
	m.maybeFound()
}

// maybeFound completes the founder path once the process has a view of
// the target HWG.
func (m *lwgMember) maybeFound() {
	if !m.foundNow || m.state != lwgJoining {
		return
	}
	hv, ok := m.e.hwg.CurrentView(m.hwg)
	if !ok || !hv.Contains(m.e.pid) {
		return // wait for the HWG view; onHWGView retries
	}
	m.foundNow = false
	rec := viewRecord{LWG: m.id, View: m.proposedView, Ancestors: nil}
	m.installView(rec, m.hwg)
	// Tell the other HWG members (and any concurrent joiners).
	m.e.hwgSend(m.hwg, &lwgView{Rec: rec, HWG: m.hwg})
}

// --- admission (coordinator side) ------------------------------------------

func (m *lwgMember) onJoinReq(from ids.ProcessID) {
	if m.view.Contains(from) {
		// A join request from a member of record. Either the joiner's
		// retry crossed its admission announcement in flight — it has
		// been mapped and pre-install buffering since before the
		// admission flush, so repeating the announcement is enough —
		// or a merge resurrected its stale membership while it was
		// still resolving its mapping, in which case any data already
		// sent in this view is gone for it and a repeated announcement
		// would hand it a delivery window with a hole in it. The two
		// are indistinguishable here, but a view that has carried no
		// traffic has nothing to miss (anything sent from now on is
		// buffered by the mapped joiner): re-announce only then,
		// otherwise cut a fresh view so the rejoiner's obligations
		// start at a clean boundary.
		if !m.seenTraffic {
			if m.isCoordinator() && m.state == lwgActive {
				m.e.hwgSend(m.hwg, &lwgView{
					Rec: viewRecord{LWG: m.id, View: m.view.Clone(), Ancestors: m.ancestors},
					HWG: m.hwg,
				})
			}
			return
		}
		m.pendingRejoiners[from] = true
		if m.actsAsCoordinator() {
			m.maybeLwgReconfig()
		}
		return
	}
	m.pendingJoiners[from] = true
	if m.actsAsCoordinator() {
		m.maybeLwgReconfig()
	}
}

func (m *lwgMember) onLeaveReq(from ids.ProcessID) {
	if !m.view.Contains(from) {
		return
	}
	m.pendingLeavers[from] = true
	if m.actsAsCoordinator() {
		m.maybeLwgReconfig()
	}
}

// maybeLwgReconfig runs the LWG join/leave protocol: a LWG-level flush
// (lwgStop / lwgFlushOk among the LWG's members only) followed by the new
// view announcement. The HWG multicast is per-sender FIFO, so each
// member's old-view data precedes its lwgFlushOk and
// the coordinator has delivered all of it before it sends lwgView. That
// every other member also delivers that data before lwgView is not an HWG
// guarantee: it holds because the network hands every receiver the frames
// in one order (the simulated shared bus). Data lost at one member and
// repaired after lwgView arrives is dropped there as an ancestor-view
// message (onLwgData) — ROADMAP direction 2.
func (m *lwgMember) maybeLwgReconfig() {
	e := m.e
	if m.state != lwgActive || m.fl != nil {
		return
	}
	joiners := make(ids.Members, 0, len(m.pendingJoiners))
	for p := range m.pendingJoiners {
		if !m.view.Contains(p) {
			joiners = append(joiners, p)
		}
	}
	// A rejoiner still in the view forces a view change even though the
	// membership is unchanged; one that fell out in the meantime is a
	// plain admission.
	rejoining := false
	for p := range m.pendingRejoiners {
		if m.view.Contains(p) {
			rejoining = true
		} else {
			joiners = append(joiners, p)
		}
	}
	leavers := make(ids.Members, 0, len(m.pendingLeavers)+1)
	for p := range m.pendingLeavers {
		if m.view.Contains(p) {
			leavers = append(leavers, p)
		}
	}
	if m.leaveRequested {
		leavers = append(leavers, e.pid)
	}
	if len(joiners) == 0 && len(leavers) == 0 && !rejoining {
		return
	}
	newMembers := m.view.Members.Clone()
	for _, p := range leavers {
		newMembers = newMembers.Without(p)
	}
	newMembers = newMembers.Union(ids.NewMembers(joiners...))
	oldID := m.view.ID
	rec := viewRecord{
		LWG: m.id,
		View: ids.View{
			ID:      reconfViewID(m.id, oldID, newMembers),
			Members: newMembers,
		},
		Ancestors: append(append(ids.ViewIDs{}, m.ancestors...), oldID),
	}
	// Rejoiners need the state snapshot too: they are fresh process
	// incarnations whatever the membership list says.
	admitting := len(joiners) > 0 || rejoining
	m.startLwgFlush("reconfig", func() {
		if len(rec.View.Members) == 0 {
			// Everyone left: dissolve the group.
			m.e.deleteMapping(m.id, oldID)
			m.e.hwgSend(m.hwg, &lwgView{Rec: rec, HWG: m.hwg})
			return
		}
		nv := &lwgView{Rec: rec, HWG: m.hwg}
		// State transfer: the flush has quiesced the old view, so the
		// snapshot reflects exactly the delivered messages.
		if admitting {
			if sh, ok := m.e.up.(StateHandler); ok {
				if st := sh.SnapshotState(m.id); st != nil {
					nv.HasState = true
					nv.State = st
				}
			}
		}
		m.e.hwgSend(m.hwg, nv)
	})
}

// startLwgFlush quiesces the current LWG view (coordinator side): members
// answer lwgFlushOk once stopped; onDone runs when all reachable members
// have answered.
func (m *lwgMember) startLwgFlush(why string, onDone func()) {
	e := m.e
	expected := m.flushExpected()
	m.fl = &lwgFlushRound{
		view:     m.view.ID,
		expected: expected,
		got:      make(map[ids.ProcessID]bool),
		onDone:   onDone,
	}
	e.ins.lwgFlushes.Inc()
	e.trace("lwg-flush", "%s: %s expected=%s", m.id, why, expected)
	m.state = lwgStopped
	e.hwgSend(m.hwg, &lwgStop{LWG: m.id, View: m.view.ID})
	m.armLwgFlushTimer()
}

// flushExpected is the set of LWG members that can still answer: those
// present in the current HWG view.
func (m *lwgMember) flushExpected() ids.Members {
	hv, ok := m.e.hwg.CurrentView(m.hwg)
	if !ok {
		return m.view.Members.Clone()
	}
	return m.view.Members.Intersect(hv.Members)
}

func (m *lwgMember) armLwgFlushTimer() {
	fl := m.fl
	fl.timer = m.e.clock.After(lwgFlushTimeout, func() {
		if m.fl != fl {
			return
		}
		fl.attempts++
		if fl.attempts >= 5 {
			// Give up; the HWG view change that is evidently in
			// progress will retrigger what is needed.
			m.abortLwgFlush()
			return
		}
		// Narrow to members still reachable and retry the stop.
		fl.expected = fl.expected.Intersect(m.flushExpected())
		if m.lwgFlushComplete() {
			return
		}
		m.e.hwgSend(m.hwg, &lwgStop{LWG: m.id, View: m.view.ID})
		m.armLwgFlushTimer()
	})
}

func (m *lwgMember) abortLwgFlush() {
	if m.fl != nil {
		if m.fl.timer != nil {
			m.fl.timer.Stop()
		}
		m.fl = nil
	}
	// Reset lwgStopped even without a local round: a member (or a
	// coordinator re-stopped by its own stale lwgStop echo) can be
	// quiesced by a round that died elsewhere, and nothing but this
	// abort will ever release it.
	if m.state == lwgStopped {
		m.state = lwgActive
		m.drainSends()
	}
}

func (m *lwgMember) onFlushOk(from ids.ProcessID, msg *lwgFlushOk) {
	fl := m.fl
	if fl == nil || msg.View != fl.view {
		return
	}
	fl.got[from] = true
	m.lwgFlushComplete()
}

func (m *lwgMember) lwgFlushComplete() bool {
	fl := m.fl
	for _, p := range fl.expected {
		if !fl.got[p] {
			return false
		}
	}
	if fl.timer != nil {
		fl.timer.Stop()
	}
	m.fl = nil
	fl.onDone()
	return true
}

func (m *lwgMember) onStop(msg *lwgStop) {
	if m.state == lwgResolving || m.state == lwgJoining {
		// Nothing to quiesce — no installed view, and sends queue until
		// admission. But the flush may be counting us: a reconfig that
		// cuts a fresh boundary for our own rejoin flushes the view our
		// stale membership sits in. Answer like the phantom case does.
		m.e.hwgSend(m.hwg, &lwgFlushOk{LWG: m.id, View: msg.View, From: m.e.pid})
		return
	}
	if msg.View != m.view.ID {
		return
	}
	// A stop echoed back for a round this coordinator already aborted
	// must not re-quiesce the view: no completion will ever release it.
	if m.fl == nil && m.isCoordinator() && m.state == lwgActive {
		return
	}
	if m.state == lwgActive {
		m.state = lwgStopped
	}
	// Answer (and re-answer duplicates) while quiesced.
	if m.state == lwgStopped {
		m.e.hwgSend(m.hwg, &lwgFlushOk{LWG: m.id, View: m.view.ID, From: m.e.pid})
	}
}

// --- leaving ---------------------------------------------------------------

func (m *lwgMember) requestLeave() {
	e := m.e
	switch m.state {
	case lwgResolving, lwgJoining:
		e.trace("leave", "%s: aborting join", m.id)
		if !m.proposedView.ID.IsZero() {
			// We may have won a creation race; withdraw the mapping.
			e.deleteMapping(m.id, m.proposedView.ID)
		}
		e.dropLwg(m.id)
		// A merge may have resurrected our stale membership from an
		// earlier incarnation while we were resolving: the view
		// announcement naming this process arrived, but with local
		// state present it was only recorded, never installed (that
		// needs a mapped joiner) and never repudiated (that needs no
		// state at all). Now that the state is gone, nobody would ever
		// answer for it — the survivors keep a ghost member forever.
		// Repudiate every recorded view of this LWG that claims us.
		for _, st := range e.hwgs {
			for _, rec := range st.known[m.id] {
				e.maybeRepudiate(st, rec)
			}
		}
		return
	}
	m.leaveRequested = true
	if len(m.view.Members) <= 1 {
		e.trace("leave", "%s: last member, dissolving", m.id)
		e.deleteMapping(m.id, m.view.ID)
		e.dropLwg(m.id)
		return
	}
	if m.isCoordinator() {
		m.maybeLwgReconfig()
		return
	}
	m.armLeaveTicker()
}

// armLeaveTicker announces this process's leave intent to the coordinator
// and keeps re-announcing until the removal view installs and drops the
// LWG (which stops all tickers).
func (m *lwgMember) armLeaveTicker() {
	e := m.e
	send := func() {
		if m.e.lwgs[m.id] == m {
			e.hwgSend(m.hwg, &lwgLeaveReq{LWG: m.id, From: e.pid})
		}
	}
	send()
	m.leaveTicker = e.clock.Every(joinRetryInterval, send)
}

// deleteMapping tombstones the LWG view in the naming service, retrying a
// few times in the background.
func (e *Endpoint) deleteMapping(lwg ids.LWGID, view ids.ViewID) {
	attempt := 0
	// One version for all retries: they are resends of the same logical
	// delete, and a later re-creation of the mapping (same view ID, higher
	// version) must win against every one of them.
	ver := e.nextVer()
	var try func()
	try = func() {
		e.ns.Delete(lwg, view, ver, func(_ []naming.Entry, ok bool) {
			if !ok && attempt < 5 {
				attempt++
				e.clock.After(nsRetryInterval, try)
			}
		})
	}
	try()
}

// dropLwg removes all local state for the LWG.
func (e *Endpoint) dropLwg(lwg ids.LWGID) {
	m, ok := e.lwgs[lwg]
	if !ok {
		return
	}
	m.stopTimers()
	// Batched data this member already sent must still reach the group
	// (an unbatched send would have been multicast immediately).
	if st := e.hwgs[m.hwg]; st != nil {
		e.flushBatch(st)
	}
	if st := e.hwgs[m.hwg]; st != nil && st.local[lwg] {
		delete(st.local, lwg)
		if len(st.local) == 0 {
			st.emptySince = e.clock.Now()
		}
	}
	delete(e.lwgs, lwg)
	e.updateGauges()
}

// --- view installation -------------------------------------------------------

// installView makes rec the member's current LWG view on the given HWG
// and performs the coordinator's naming-service update.
func (m *lwgMember) installView(rec viewRecord, hwg ids.HWGID) {
	e := m.e
	oldHwg := m.hwg
	// Payloads still batched under the outgoing view would be multicast
	// with an ancestor view tag and dropped everywhere; pull them back
	// into the pending queue so drainSends re-stamps them below.
	if ost := e.hwgs[oldHwg]; ost != nil {
		e.requeueBatchFor(ost, m)
	}
	if m.joinTicker != nil {
		m.joinTicker.Stop()
		m.joinTicker = nil
	}
	if m.joinTimer != nil {
		m.joinTimer.Stop()
		m.joinTimer = nil
	}
	if m.switchTicker != nil {
		m.switchTicker.Stop()
		m.switchTicker = nil
	}
	m.sw = nil
	if m.fl != nil {
		if m.fl.timer != nil {
			m.fl.timer.Stop()
		}
		m.fl = nil
	}
	m.state = lwgActive
	m.view = rec.View.Clone()
	m.ancestors = append(ids.ViewIDs{}, rec.Ancestors...)
	m.hwg = hwg
	m.seenTraffic = false
	m.switchTarget = ids.NoHWG
	e.observeLwgView(m.id, rec.View.ID)

	if oldHwg != ids.NoHWG && oldHwg != hwg {
		if ost := e.hwgs[oldHwg]; ost != nil {
			delete(ost.local, m.id)
			ost.forward[m.id] = hwg
			delete(ost.known, m.id)
			if len(ost.local) == 0 {
				ost.emptySince = e.clock.Now()
			}
		}
	}
	st := e.hwgState(hwg)
	st.local[m.id] = true
	st.emptySince = 0
	delete(st.forward, m.id)
	e.recordKnown(st, rec)

	for p := range m.pendingJoiners {
		if rec.View.Contains(p) {
			delete(m.pendingJoiners, p)
		}
	}
	for p := range m.pendingLeavers {
		if !rec.View.Contains(p) {
			delete(m.pendingLeavers, p)
		}
	}
	// Any view minted after a rejoin request satisfies it: the rejoiner
	// adopts this view's announcement and has buffered its traffic since
	// before the flush.
	for p := range m.pendingRejoiners {
		if rec.View.Contains(p) {
			delete(m.pendingRejoiners, p)
		}
	}

	e.ins.viewInstalls.Inc()
	e.traceEvent(trace.Event{
		What:    trace.LWGViewInstall,
		Text:    fmt.Sprintf("%s: %v%s on %v", m.id, rec.View.ID, rec.View.Members, hwg),
		Group:   string(m.id),
		View:    rec.View.ID,
		Members: rec.View.Members.Clone(),
		Parents: append(ids.ViewIDs{}, rec.Ancestors...),
	})
	if m.isCoordinator() {
		e.updateMapping(m)
	}
	if e.up != nil {
		e.up.View(m.id, rec.View.Clone())
	}
	m.replayPreInstall()
	m.drainSends()
	// Serve joins and leaves that queued up during the change.
	if m.actsAsCoordinator() && (len(m.pendingJoiners) > 0 || len(m.pendingLeavers) > 0 ||
		len(m.pendingRejoiners) > 0 || m.leaveRequested) {
		m.maybeLwgReconfig()
	} else if m.leaveRequested && !m.isCoordinator() && m.leaveTicker == nil {
		// A leaving coordinator handles its own exit through a reconfig
		// flush — but a merge can install a view led by someone else
		// before that flush completes, and then nobody knows this
		// process still wants out. Announce the intent to the new
		// coordinator like any other leaver would.
		m.armLeaveTicker()
	}
}

// updateMapping writes the member's current mapping to the naming service
// (coordinator only), retrying on failure.
func (e *Endpoint) updateMapping(m *lwgMember) {
	viewAtWrite := m.view.ID
	hwgAtWrite := m.hwg
	var hwgView ids.ViewID
	if hv, ok := e.hwg.CurrentView(m.hwg); ok {
		hwgView = hv.ID
	}
	entry := naming.Entry{
		LWG:       m.id,
		View:      viewAtWrite,
		Ancestors: append(ids.ViewIDs{}, m.ancestors...),
		HWG:       hwgAtWrite,
		HWGView:   hwgView,
		Ver:       e.nextVer(),
		Refreshed: int64(e.clock.Now()),
	}
	e.ns.SetView(entry, func(_ []naming.Entry, ok bool) {
		if ok {
			return
		}
		e.clock.After(nsRetryInterval, func() {
			if cur, live := e.lwgs[m.id]; live && cur == m &&
				m.view.ID == viewAtWrite && m.hwg == hwgAtWrite && m.isCoordinator() {
				e.updateMapping(m)
			}
		})
	})
}

// recordKnown stores a view record in AV_p(hwg), pruning records the new
// one supersedes.
func (e *Endpoint) recordKnown(st *hwgState, rec viewRecord) {
	mv := st.known[rec.LWG]
	if mv == nil {
		mv = make(map[ids.ViewID]viewRecord)
		st.known[rec.LWG] = mv
	}
	mv[rec.View.ID] = rec
	for vid := range mv {
		if vid != rec.View.ID && rec.Ancestors.Contains(vid) {
			delete(mv, vid)
		}
	}
}

// reconfViewID mints the deterministic identifier of a coordinator-driven
// reconfiguration (join/leave): coordinated by the new membership's
// smallest member.
func reconfViewID(lwg ids.LWGID, old ids.ViewID, members ids.Members) ids.ViewID {
	coord := members.Min()
	if coord < 0 {
		coord = old.Coord
	}
	seq := groupMintedBit | hashViewInputs("reconf", lwg, append(ids.ViewIDs{old}, memberViewKey(members)...))
	return ids.ViewID{Coord: coord, Seq: seq}
}

// memberViewKey encodes a member set as pseudo view ids for hashing.
func memberViewKey(members ids.Members) ids.ViewIDs {
	out := make(ids.ViewIDs, len(members))
	for i, p := range members {
		out[i] = ids.ViewID{Coord: p, Seq: 0}
	}
	return out
}
