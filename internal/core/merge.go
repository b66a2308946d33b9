package core

import (
	"fmt"
	"sort"
	"time"

	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/trace"
	"plwg/internal/vsync"
)

// This file implements the partition-reconciliation machinery of
// Sections 4 and 6:
//
//	Step 1 — global peer discovery: MULTIPLE-MAPPINGS callbacks from the
//	         naming service (handleNamingCallback).
//	Step 2 — mapping reconciliation: concurrent LWG views switch to the
//	         HWG with the highest identifier (the switching protocol).
//	Step 3 — local peer discovery: view-tagged DATA and announcement
//	         messages expose concurrent LWG views sharing a HWG.
//	Step 4 — merge-views (Figure 5): one forced HWG flush merges all
//	         concurrent views of all LWGs mapped on the HWG at once.

// --- HWG upcalls -----------------------------------------------------------

func (e *Endpoint) onHWGStop(gid ids.HWGID) {
	st := e.hwgState(gid)
	st.stopped = true
	// Batched data can no longer be multicast under its current view
	// tags (vsync has quiesced; a send now would surface in the next
	// HWG view, still stamped with old LWG views, and be dropped
	// everywhere). Return it to the pending queues — the post-view
	// drain re-stamps and re-sends it.
	e.requeueBatch(st)
	// The LWG layer quiesces by buffering its sends (Send checks
	// st.stopped), so it can acknowledge immediately.
	_ = e.hwg.StopOk(gid)
}

func (e *Endpoint) onHWGView(gid ids.HWGID, view ids.View) {
	st := e.hwgState(gid)
	st.view = view
	st.stopped = false
	e.updateGauges()

	// Progress joins and founders waiting for this HWG's view (sorted
	// iteration: message emission must be deterministic).
	for _, l := range e.LWGs() {
		m := e.lwgs[l]
		if m.hwg != gid {
			continue
		}
		switch m.state {
		case lwgJoining:
			m.maybeFound()
			m.sendJoinReq()
		}
	}

	// Reconcile every LWG known on this HWG: trim views to the surviving
	// members and merge concurrent views whose records were exchanged
	// (Figure 5 line 114: "when the hwg is flushed ... merge all
	// concurrent views in AV_p(hwg)").
	e.reconcileLWGs(st)
	st.mergePending = false

	// Local peer discovery seed: advertise our LWG views so concurrent
	// views meeting in this HWG view find each other even without data
	// traffic.
	e.announceLocal(st)

	// Members switching onto this HWG can now report readiness.
	for _, l := range e.LWGs() {
		m := e.lwgs[l]
		if m.state == lwgSwitching && m.switchTarget == gid {
			m.sendSwitchReady()
		}
	}

	// Buffered sends of LWGs on this HWG can flow again.
	for _, l := range e.LWGs() {
		if st.local[l] {
			if m := e.lwgs[l]; m != nil {
				m.drainSends()
			}
		}
	}
}

func (e *Endpoint) onHWGData(gid ids.HWGID, src ids.ProcessID, payload vsync.Payload) {
	st := e.hwgState(gid)
	switch msg := payload.(type) {
	case *lwgData:
		e.onLwgData(st, src, msg)
	case *lwgBatch:
		for _, d := range msg.Msgs {
			e.onLwgData(st, src, d)
		}
	case *lwgJoinReq:
		e.onLwgJoinReq(st, msg)
	case *lwgLeaveReq:
		if m := e.memberOn(msg.LWG, gid); m != nil {
			m.onLeaveReq(msg.From)
		}
	case *lwgMoved:
		e.onLwgMoved(st, msg)
	case *lwgStop:
		if m := e.memberOn(msg.LWG, gid); m != nil {
			m.onStop(msg)
		} else {
			// No state for this LWG: we may be a phantom member being
			// flushed out after our leave was lost to a partition
			// (see maybeRepudiate). Answer so the exclusion flush can
			// complete; we have nothing to quiesce.
			e.hwgSend(gid, &lwgFlushOk{LWG: msg.LWG, View: msg.View, From: e.pid})
		}
	case *lwgFlushOk:
		if m := e.memberOn(msg.LWG, gid); m != nil {
			m.onFlushOk(msg.From, msg)
		}
	case *lwgView:
		e.onLwgView(st, msg)
	case *lwgAnnounce:
		for _, rec := range msg.Views {
			e.onViewRecord(st, rec)
		}
	case *lwgMergeViews:
		e.onMergeViews(st)
	case *lwgMappedViews:
		for _, rec := range msg.Views {
			e.recordKnown(st, rec)
			e.observeLwgView(rec.LWG, rec.View.ID)
		}
	case *lwgSwitch:
		e.onLwgSwitch(st, msg)
	case *lwgSwitchReady:
		e.onSwitchReady(st, msg)
	}
}

// memberOn returns the local LWG member if it is mapped on the HWG.
func (e *Endpoint) memberOn(lwg ids.LWGID, gid ids.HWGID) *lwgMember {
	m := e.lwgs[lwg]
	if m == nil || m.hwg != gid {
		return nil
	}
	return m
}

// --- data path and local peer discovery (Step 3, Figure 5) -----------------

func (e *Endpoint) onLwgData(st *hwgState, src ids.ProcessID, msg *lwgData) {
	m := e.memberOn(msg.LWG, st.gid)
	if m == nil {
		return // no local member: filtered out (the interference cost)
	}
	if m.state == lwgJoining {
		// Admission race: the vsync view that carried our admission
		// lwgView may not have included this process yet, so data
		// stamped with our first view can arrive before the
		// (re-announced) view itself. Dropping it would lose messages
		// sent in a view we are a member of; buffer and replay at
		// install. Joiners buffer unconditionally — they have no view
		// to deliver in yet.
		m.bufferPreInstall(src, msg)
		return
	}
	switch {
	case msg.View == m.view.ID:
		// Figure 5 line 104: the message was sent in our view. Direct
		// delivery happens synchronously under the HWG Data upcall, so
		// the wire trace context (when the envelope carried one) is still
		// live — record LWG-level one-way latency here. Replayed
		// pre-install buffers deliberately skip this: their context
		// would be stale by install time.
		if tc, ok := e.hwg.InboundTC(); ok && tc.Origin == int64(src) {
			lat := time.Duration(time.Now().UnixNano() - tc.Wall)
			if lat < 0 {
				lat = 0
			}
			m.hLatency.Observe(lat)
		}
		m.deliverData(src, msg)
	case m.ancestors.Contains(msg.View):
		// Sent in a view we have since superseded: drop.
	default:
		// Sent in a view we have not installed: concurrent traffic —
		// or a successor view's data racing ahead of its announcement
		// (an HWG flush retransmission can reorder the two). Buffer it
		// for replay in case we catch up to that view; a merge round
		// resolves the genuinely concurrent case.
		m.bufferPreInstall(src, msg)
		// Figure 5 line 106: a concurrent view of our LWG shares this
		// HWG — trigger the merge.
		e.triggerMergeViews(st)
	}
}

// deliverData hands one data message to the application.
func (m *lwgMember) deliverData(src ids.ProcessID, msg *lwgData) {
	e := m.e
	m.seenTraffic = true
	e.ins.deliveries.Inc()
	e.traceEvent(trace.Event{
		What:  trace.LWGDeliver,
		Text:  fmt.Sprintf("%s: %q from %v in %v", msg.LWG, msg.Data, src, msg.View),
		Group: string(msg.LWG),
		View:  msg.View,
		Src:   src,
		Data:  string(msg.Data),
	})
	if e.up != nil {
		e.up.Data(msg.LWG, src, msg.Data)
	}
}

// bufferPreInstall queues data received under a view not yet installed
// for replay at install time. maxPreInstall bounds the buffer; a
// member that falls further behind sheds the oldest message (the most
// likely to be superseded by the time a view installs). Shedding is never
// silent: the drop is counted (core_preinstall_drops_total) and traced as
// LWGPreInstallDrop, which the invariant checker reports as a finding —
// an overflow-induced delivery gap must be distinguishable from the
// benign races this buffer exists to absorb.
func (m *lwgMember) bufferPreInstall(src ids.ProcessID, msg *lwgData) {
	e := m.e
	if len(m.preInstall) >= maxPreInstall {
		dropped := m.preInstall[0]
		m.preInstall = m.preInstall[1:]
		e.ins.preinstallDrops.Inc()
		e.traceEvent(trace.Event{
			What:  trace.LWGPreInstallDrop,
			Group: string(dropped.msg.LWG),
			View:  dropped.msg.View,
			Src:   dropped.src,
			Data:  string(dropped.msg.Data),
			Text: fmt.Sprintf("%s: pre-install buffer full (%d), shed %q from %v in %v",
				m.id, maxPreInstall, dropped.msg.Data, dropped.src, dropped.msg.View),
		})
	}
	m.preInstall = append(m.preInstall, pendingData{src: src, msg: msg})
}

// replayPreInstall delivers buffered pre-install data stamped with the
// just-installed view (in receipt order, which is the vsync total
// order), drops what the genealogy has superseded, and keeps the rest
// for a later install.
func (m *lwgMember) replayPreInstall() {
	if len(m.preInstall) == 0 {
		return
	}
	pend := m.preInstall
	m.preInstall = nil
	for _, d := range pend {
		switch {
		case d.msg.View == m.view.ID:
			m.deliverData(d.src, d.msg)
		case m.ancestors.Contains(d.msg.View):
			// Superseded while we were joining: drop.
		default:
			m.preInstall = append(m.preInstall, d)
		}
	}
}

// onLwgJoinReq handles an admission request: forward pointers redirect
// joiners of moved LWGs; the LWG coordinator admits the rest.
func (e *Endpoint) onLwgJoinReq(st *hwgState, msg *lwgJoinReq) {
	if target, moved := st.forward[msg.LWG]; moved {
		// Only one member answers to keep the bus quiet.
		if !st.view.ID.IsZero() && st.view.Coordinator() == e.pid {
			e.hwgSend(st.gid, &lwgMoved{LWG: msg.LWG, Target: target})
		}
		return
	}
	if m := e.memberOn(msg.LWG, st.gid); m != nil {
		m.onJoinReq(msg.From)
	}
}

func (e *Endpoint) onLwgMoved(st *hwgState, msg *lwgMoved) {
	m := e.memberOn(msg.LWG, st.gid)
	if m == nil || m.state != lwgJoining {
		return
	}
	e.trace("join", "%s: forwarded from %v to %v", msg.LWG, st.gid, msg.Target)
	m.stopTimers()
	m.targetHWG(msg.Target)
}

// onLwgView handles a view announcement: admission of joiners, switch
// re-binding, catch-up, and concurrency detection.
func (e *Endpoint) onLwgView(st *hwgState, msg *lwgView) {
	rec := msg.Rec
	e.observeLwgView(rec.LWG, rec.View.ID)
	m := e.lwgs[rec.LWG]
	if m == nil {
		e.recordKnown(st, rec)
		e.maybeRepudiate(st, rec)
		return
	}
	// Joiner admitted into an existing view on the HWG it targeted. A
	// state snapshot, if present, is installed before the first View
	// upcall.
	if m.state == lwgJoining && m.hwg == st.gid && rec.View.Contains(e.pid) {
		if msg.HasState && e.up != nil {
			if sh, ok := e.up.(StateHandler); ok {
				sh.InstallState(rec.LWG, msg.State)
			}
		}
		m.installView(rec, st.gid)
		return
	}
	// Switch re-binding: same view, new HWG (the lwgView was multicast on
	// the target). Only the announced switch target may re-bind us: a
	// re-sent or duplicated announcement of the OLD binding (same view,
	// old HWG — e.g. the coordinator answering a late join retry) would
	// otherwise cancel the switch and wedge this member on the old HWG
	// while the rest of the group reconfigures on the target.
	if m.state == lwgSwitching && msg.HWG == st.gid && st.gid == m.switchTarget &&
		rec.View.ID == m.view.ID {
		e.ins.rebinds.Inc()
		e.traceEvent(trace.Event{
			What:  trace.LWGRebind,
			Group: string(rec.LWG),
			View:  rec.View.ID,
			Ref:   st.gid.String(),
			Text:  fmt.Sprintf("re-bound to %v", st.gid),
		})
		m.installView(rec, st.gid)
		return
	}
	// Straggling switcher: the group re-bound and reconfigured past our
	// view before we reported ready (e.g. the binding was multicast in a
	// concurrent partition of the target HWG).
	if m.state == lwgSwitching && msg.HWG == st.gid && m.switchTarget == st.gid &&
		rec.Ancestors.Contains(m.view.ID) {
		e.recordKnown(st, rec)
		if rec.View.Contains(e.pid) {
			e.ins.rebinds.Inc()
			e.traceEvent(trace.Event{
				What:  trace.LWGRebind,
				Group: string(rec.LWG),
				View:  rec.View.ID,
				Ref:   st.gid.String(),
				Text:  fmt.Sprintf("re-bound to %v (caught up to %v)", st.gid, rec.View.ID),
			})
			m.installView(rec, st.gid)
			return
		}
		// Merged away without us: land on the target as a singleton;
		// merge-views folds us back in.
		e.traceEvent(trace.Event{
			What:  trace.LWGRebind,
			Group: string(rec.LWG),
			View:  m.view.ID,
			Ref:   st.gid.String(),
			Text:  fmt.Sprintf("superseded mid-switch, landing on %v as singleton", st.gid),
		})
		single := viewRecord{
			LWG: rec.LWG,
			View: ids.View{
				ID:      trimmedViewID(rec.LWG, m.view.ID, st.view.ID, e.pid),
				Members: ids.NewMembers(e.pid),
			},
			Ancestors: append(append(ids.ViewIDs{}, m.ancestors...), m.view.ID),
		}
		m.installView(single, st.gid)
		e.triggerMergeViews(st)
		return
	}
	if m.hwg != st.gid {
		e.recordKnown(st, rec)
		// The announcement may still claim this process — a merge on an
		// HWG we are not (or no longer) targeting can resurrect a stale
		// incarnation of us while we resolve or join elsewhere.
		e.maybeRepudiate(st, rec)
		return
	}
	e.onViewRecord(st, rec)
}

// onViewRecord folds one remote view record into local state: catch-up,
// supersession, or concurrency detection.
func (e *Endpoint) onViewRecord(st *hwgState, rec viewRecord) {
	e.recordKnown(st, rec)
	e.observeLwgView(rec.LWG, rec.View.ID)
	e.maybeRepudiate(st, rec)
	m := e.memberOn(rec.LWG, st.gid)
	if m == nil || m.state == lwgResolving || m.state == lwgJoining {
		return
	}
	switch {
	case rec.View.ID == m.view.ID:
		// Our own view echoed back.
	case rec.Ancestors.Contains(m.view.ID):
		// A successor of our view exists.
		if rec.View.Contains(e.pid) {
			e.trace("lwg-catchup", "%s: catching up to %v", rec.LWG, rec.View.ID)
			m.installView(rec, st.gid)
		} else if m.leaveRequested {
			e.dropLwg(rec.LWG)
		} else {
			// Superseded without us (we were presumed gone): continue
			// in a singleton view; reconciliation will merge us back.
			single := viewRecord{
				LWG: rec.LWG,
				View: ids.View{
					ID:      trimmedViewID(rec.LWG, m.view.ID, st.view.ID, e.pid),
					Members: ids.NewMembers(e.pid),
				},
				Ancestors: append(append(ids.ViewIDs{}, m.ancestors...), m.view.ID),
			}
			m.installView(single, st.gid)
		}
	case m.ancestors.Contains(rec.View.ID):
		// A stale echo of one of our ancestors.
	default:
		// Concurrent views of the same LWG on the same HWG: Step 3
		// found a peer; run Step 4.
		e.triggerMergeViews(st)
	}
}

// --- merge-views protocol (Step 4, Figure 5) --------------------------------

// maybeRepudiate handles phantom membership: a view claims this process
// for a light-weight group it has no state for. This happens when a
// leave completed on one side of a partition while the other side's view
// (still containing the leaver) survived the merge. Light-weight
// membership has no failure detector of its own — the leaver is alive at
// the HWG level — so the phantom must speak up: a leave request makes
// the view's coordinator exclude it.
func (e *Endpoint) maybeRepudiate(st *hwgState, rec viewRecord) {
	if !rec.View.Contains(e.pid) {
		return
	}
	if m, stillMember := e.lwgs[rec.LWG]; stillMember {
		// A resolving member — or one joining a *different* HWG, i.e.
		// a forwarded join — has never been admitted anywhere as this
		// incarnation, so a view claiming it can only be a resurrected
		// previous incarnation, and nothing else will ever answer for
		// it. Any other state is not a phantom: a member joining here
		// is about to be admitted, and an established member (e.g. a
		// switch in progress) is legitimately known on its old HWG —
		// other machinery rules those.
		if m.state != lwgResolving && !(m.state == lwgJoining && m.hwg != st.gid) {
			return
		}
	}
	e.trace("repudiate", "%s: view %v claims this process; leaving", rec.LWG, rec.View.ID)
	e.hwgSend(st.gid, &lwgLeaveReq{LWG: rec.LWG, From: e.pid})
}

// triggerMergeViews multicasts MERGE-VIEWS once per HWG view (Step 1 of
// a merge-views round; the steps of one round share the HWG view they
// run in as their correlation key).
func (e *Endpoint) triggerMergeViews(st *hwgState) {
	if st.mergePending {
		return
	}
	st.mergePending = true
	e.ins.mergeTriggers.Inc()
	e.traceEvent(trace.Event{
		What:  trace.LWGMergeStep,
		Step:  1,
		Group: st.gid.String(),
		View:  st.view.ID,
		Text:  fmt.Sprintf("trigger on %v", st.gid),
	})
	e.hwgSend(st.gid, &lwgMergeViews{})
}

// onMergeViews implements Figure 5 lines 108–111: every member multicasts
// its mapped views; the HWG coordinator forces the flush (and ignores
// further MERGE-VIEWS until the new view, which vsync does naturally).
func (e *Endpoint) onMergeViews(st *hwgState) {
	st.mergePending = true
	var views []viewRecord
	for l := range st.local {
		if m := e.lwgs[l]; m != nil {
			views = append(views, viewRecord{
				LWG: l, View: m.view.Clone(), Ancestors: append(ids.ViewIDs{}, m.ancestors...),
			})
		}
	}
	sort.Slice(views, func(i, j int) bool { return views[i].LWG < views[j].LWG })
	e.traceEvent(trace.Event{
		What:  trace.LWGMergeStep,
		Step:  2,
		Group: st.gid.String(),
		View:  st.view.ID,
		Text:  fmt.Sprintf("multicast %d mapped views", len(views)),
	})
	e.hwgSend(st.gid, &lwgMappedViews{Views: views})
	if e.hwg.IsCoordinator(st.gid) {
		e.traceEvent(trace.Event{
			What:  trace.LWGMergeStep,
			Step:  3,
			Group: st.gid.String(),
			View:  st.view.ID,
			Text:  "coordinator forcing flush",
		})
		_ = e.hwg.Flush(st.gid)
	}
}

// reconcileLWGs runs at every HWG view installation: it trims every known
// LWG view to the members that survive in the new HWG view, drops records
// superseded by descendants, merges concurrent views (deterministically —
// all members that completed the flush share the same AV set and compute
// the identical merged view), installs the result locally, and has the
// LWG coordinator update the naming service.
func (e *Endpoint) reconcileLWGs(st *hwgState) {
	names := make([]ids.LWGID, 0, len(st.known)+len(st.local))
	seen := make(map[ids.LWGID]bool)
	for l := range st.known {
		if !seen[l] {
			names = append(names, l)
			seen[l] = true
		}
	}
	for l := range st.local {
		if !seen[l] {
			names = append(names, l)
			seen[l] = true
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })

	for _, lwg := range names {
		e.reconcileOneLWG(st, lwg)
	}
}

func (e *Endpoint) reconcileOneLWG(st *hwgState, lwg ids.LWGID) {
	recs := make(map[ids.ViewID]viewRecord, len(st.known[lwg]))
	for id, r := range st.known[lwg] {
		recs[id] = r
	}
	m := e.memberOn(lwg, st.gid)
	if m != nil && (m.state == lwgActive || m.state == lwgStopped) {
		recs[m.view.ID] = viewRecord{
			LWG: lwg, View: m.view.Clone(), Ancestors: append(ids.ViewIDs{}, m.ancestors...),
		}
	}
	if len(recs) == 0 {
		return
	}

	// Trim every view to the members surviving in the new HWG view. The
	// trimmed identifier is a deterministic function of (old view, HWG
	// view), so every member mints the same one.
	trimmed := make(map[ids.ViewID]viewRecord, len(recs))
	for _, r := range recs {
		survivors := r.View.Members.Intersect(st.view.Members)
		if len(survivors) == 0 {
			continue // nobody left on this side
		}
		if survivors.Equal(r.View.Members) {
			trimmed[r.View.ID] = r
			continue
		}
		nr := viewRecord{
			LWG: lwg,
			View: ids.View{
				ID:      trimmedViewID(lwg, r.View.ID, st.view.ID, survivors.Min()),
				Members: survivors,
			},
			Ancestors: append(append(ids.ViewIDs{}, r.Ancestors...), r.View.ID),
		}
		trimmed[nr.View.ID] = nr
	}

	// Drop records superseded by a descendant.
	var survivors []viewRecord
	for id, r := range trimmed {
		superseded := false
		for id2, r2 := range trimmed {
			if id != id2 && r2.Ancestors.Contains(id) {
				superseded = true
				break
			}
		}
		if !superseded {
			survivors = append(survivors, r)
		}
	}
	sort.Slice(survivors, func(i, j int) bool {
		return survivors[i].View.ID.Less(survivors[j].View.ID)
	})

	var final viewRecord
	switch {
	case len(survivors) == 0:
		delete(st.known, lwg)
		return
	case len(survivors) == 1:
		final = survivors[0]
	default:
		// Merge all concurrent views into one (Figure 5 lines 114–118).
		mergedIDs := make(ids.ViewIDs, len(survivors))
		members := ids.Members{}
		ancSet := make(map[ids.ViewID]bool)
		for i, r := range survivors {
			mergedIDs[i] = r.View.ID
			members = members.Union(r.View.Members)
			for _, a := range r.Ancestors {
				ancSet[a] = true
			}
			ancSet[r.View.ID] = true
		}
		ancestors := make(ids.ViewIDs, 0, len(ancSet))
		for a := range ancSet {
			ancestors = append(ancestors, a)
		}
		ids.SortViewIDs(ancestors)
		final = viewRecord{
			LWG: lwg,
			View: ids.View{
				ID:      mergedViewID(lwg, mergedIDs, members.Min()),
				Members: members,
			},
			Ancestors: ancestors,
		}
		e.ins.merges.Inc()
		e.traceEvent(trace.Event{
			What:    trace.LWGMergeStep,
			Step:    4,
			Group:   st.gid.String(),
			View:    st.view.ID,
			Ref:     string(lwg),
			Data:    final.View.ID.String(),
			Members: final.View.Members.Clone(),
			Text: fmt.Sprintf("%s: merged %v into %v%s",
				lwg, mergedIDs, final.View.ID, final.View.Members),
		})
	}

	st.known[lwg] = map[ids.ViewID]viewRecord{final.View.ID: final}

	if m == nil || (m.state != lwgActive && m.state != lwgStopped) {
		return
	}
	switch {
	case final.View.ID == m.view.ID:
		// Same LWG view on a new HWG view: the coordinator refreshes the
		// view-to-view mapping (Table 4 step 2).
		if m.state == lwgStopped {
			// An in-flight LWG flush died with the old HWG view.
			m.abortLwgFlush()
		}
		if m.isCoordinator() {
			e.updateMapping(m)
		}
		// The aborted flush may have been carrying join/leave intent
		// (the coordinator's own leave included). installView replays
		// that intent after a view change, but this branch installs no
		// view — without the same replay the reconfiguration is lost
		// for good: nothing else retriggers a coordinator-side flush.
		if m.actsAsCoordinator() && (len(m.pendingJoiners) > 0 || len(m.pendingLeavers) > 0 ||
			len(m.pendingRejoiners) > 0 || m.leaveRequested) {
			m.maybeLwgReconfig()
		} else if m.leaveRequested && !m.isCoordinator() && m.leaveTicker == nil {
			m.armLeaveTicker()
		}
	case final.View.Contains(e.pid):
		m.installView(final, st.gid)
	case m.leaveRequested:
		e.dropLwg(lwg)
	default:
		// Not part of the surviving/merged view and not leaving: keep a
		// singleton going (partitionable semantics).
		single := viewRecord{
			LWG: lwg,
			View: ids.View{
				ID:      trimmedViewID(lwg, m.view.ID, st.view.ID, e.pid),
				Members: ids.NewMembers(e.pid),
			},
			Ancestors: append(append(ids.ViewIDs{}, m.ancestors...), m.view.ID),
		}
		m.installView(single, st.gid)
	}
}

// announceLocal advertises this process's LWG views on the HWG.
func (e *Endpoint) announceLocal(st *hwgState) {
	var views []viewRecord
	for l := range st.local {
		m := e.lwgs[l]
		if m == nil || (m.state != lwgActive && m.state != lwgStopped) {
			continue
		}
		views = append(views, viewRecord{
			LWG: l, View: m.view.Clone(), Ancestors: append(ids.ViewIDs{}, m.ancestors...),
		})
	}
	if len(views) == 0 {
		return
	}
	sort.Slice(views, func(i, j int) bool { return views[i].LWG < views[j].LWG })
	e.hwgSend(st.gid, &lwgAnnounce{Views: views})
}

// --- switching protocol (Sections 3, 6.2) -----------------------------------

// startSwitch moves the LWG (this process coordinates) onto the target
// HWG: flush the LWG, instruct members on the old HWG, collect readiness
// on the target, then re-bind with the same LWG view.
func (m *lwgMember) startSwitch(target ids.HWGID, fresh bool) {
	e := m.e
	if m.state != lwgActive || !m.isCoordinator() || target == m.hwg || target == ids.NoHWG {
		return
	}
	e.ins.switches.Inc()
	e.traceEvent(trace.Event{
		What:  trace.LWGSwitch,
		Group: string(m.id),
		View:  m.view.ID,
		Ref:   target.String(),
		Text:  fmt.Sprintf("%v -> %v", m.hwg, target),
	})
	if fresh && !e.hwg.IsMember(target) {
		_ = e.hwg.Create(target)
	}
	m.sw = &switchRound{target: target, ready: make(map[ids.ProcessID]bool)}
	m.startLwgFlush("switch", func() {
		if m.sw == nil || m.sw.target != target {
			return
		}
		e.hwgSend(m.hwg, &lwgSwitch{LWG: m.id, View: m.view.ID, Target: target})
		m.beginSwitchMember(target)
	})
}

// onLwgSwitch reacts to a switch instruction on the old HWG: members
// follow; bystanders install the forward pointer.
func (e *Endpoint) onLwgSwitch(st *hwgState, msg *lwgSwitch) {
	st.forward[msg.LWG] = msg.Target
	delete(st.known, msg.LWG)
	m := e.memberOn(msg.LWG, st.gid)
	if m == nil || m.view.ID != msg.View {
		return
	}
	if m.state == lwgSwitching && m.switchTarget == msg.Target {
		return
	}
	m.beginSwitchMember(msg.Target)
}

// beginSwitchMember is the per-member switch path: join the target HWG
// and report readiness until re-bound.
func (m *lwgMember) beginSwitchMember(target ids.HWGID) {
	e := m.e
	m.state = lwgSwitching
	m.switchTarget = target
	e.hwgState(target)
	if !e.hwg.IsMember(target) {
		_ = e.hwg.Join(target)
	}
	if m.switchTicker != nil {
		m.switchTicker.Stop()
	}
	attempts := 0
	m.switchTicker = e.clock.Every(switchRetryInterval, func() {
		// A shrink-rule leave of the target that was in flight when the
		// switch instruction arrived makes the IsMember check above pass
		// and then drops this process off the target once the leave
		// completes; without re-joining, readiness can never be reported.
		if m.state == lwgSwitching && m.switchTarget == target &&
			!e.hwg.IsMember(target) {
			e.hwgState(target)
			_ = e.hwg.Join(target)
		}
		m.sendSwitchReady()
		attempts++
		if m.sw != nil && attempts >= 4 && !m.sw.sent {
			// Stragglers will catch up through announcements; re-bind
			// the members that are ready.
			m.completeSwitch()
		}
	})
	m.sendSwitchReady()
}

func (m *lwgMember) sendSwitchReady() {
	if m.state != lwgSwitching || m.switchTarget == ids.NoHWG {
		return
	}
	if _, ok := m.e.hwg.CurrentView(m.switchTarget); !ok {
		return
	}
	m.e.hwgSend(m.switchTarget, &lwgSwitchReady{
		LWG: m.id, View: m.view.ID, From: m.e.pid,
	})
}

// onSwitchReady collects readiness at the coordinator (on the target
// HWG) and answers stragglers after the switch completed.
func (e *Endpoint) onSwitchReady(st *hwgState, msg *lwgSwitchReady) {
	m := e.lwgs[msg.LWG]
	if m == nil {
		return
	}
	if m.hwg == st.gid && m.state == lwgActive && m.isCoordinator() &&
		(m.view.ID == msg.View || m.ancestors.Contains(msg.View)) {
		// Already switched (and possibly reconfigured past the
		// straggler's view since): repeat the current binding. The
		// straggler re-binds or, if merged away, lands in a singleton
		// that merge-views folds back in.
		e.hwgSend(st.gid, &lwgView{
			Rec: viewRecord{LWG: m.id, View: m.view.Clone(), Ancestors: m.ancestors},
			HWG: st.gid,
		})
		return
	}
	if m.view.ID != msg.View {
		return
	}
	if m.sw == nil || m.sw.target != st.gid {
		return
	}
	m.sw.ready[msg.From] = true
	for _, p := range m.view.Members {
		if !m.sw.ready[p] {
			return
		}
	}
	m.completeSwitch()
}

// completeSwitch announces the re-binding on the target HWG (coordinator
// side). Installation happens on receipt, uniformly at every member.
func (m *lwgMember) completeSwitch() {
	if m.sw == nil || m.sw.sent {
		return
	}
	m.sw.sent = true
	m.e.hwgSend(m.sw.target, &lwgView{
		Rec: viewRecord{LWG: m.id, View: m.view.Clone(), Ancestors: m.ancestors},
		HWG: m.sw.target,
	})
}

// --- naming callbacks (Steps 1–2) -------------------------------------------

// handleNamingCallback receives MULTIPLE-MAPPINGS and applies the
// Section 6.2 rule: the coordinators of all concurrent views switch to
// the mapping with the highest HWG identifier; views already there keep
// their mapping.
func (e *Endpoint) handleNamingCallback(_ netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
	mm, ok := msg.(*naming.MsgMultipleMappings)
	if !ok {
		return
	}
	m := e.lwgs[mm.LWG]
	if m == nil || !m.isCoordinator() || m.state != lwgActive {
		return
	}
	target := naming.PreferredHWG(mm.Mappings)
	if target == ids.NoHWG || target == m.hwg {
		return
	}
	e.trace("reconcile", "%s: MULTIPLE-MAPPINGS, switching %v -> %v", mm.LWG, m.hwg, target)
	m.startSwitch(target, false)
}
