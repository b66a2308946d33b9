package core

import (
	"plwg/internal/ids"
	"plwg/internal/policy"
)

// This file drives the Figure 1 mapping heuristics (Section 3.2). The
// rules run periodically (once a minute in the paper's prototype) at
// every process, over purely local knowledge: the memberships of the
// HWGs the process belongs to and of the LWGs it coordinates. Decisions
// are deterministic, and only a LWG view's coordinator switches it, so
// different processes cannot make incompatible mapping decisions.

// knownHWGs snapshots the heavy-weight groups this process belongs to.
func (e *Endpoint) knownHWGs() []policy.HWG {
	var out []policy.HWG
	for _, gid := range e.hwg.Groups() {
		if v, ok := e.hwg.CurrentView(gid); ok {
			out = append(out, policy.HWG{GID: gid, Members: v.Members})
		}
	}
	return out
}

func (e *Endpoint) runPolicy() {
	known := e.knownHWGs()
	e.applyInterferenceRule(known)
	e.applyShareRule(known)
	e.applyShrinkRule()
}

// applyInterferenceRule switches every LWG this process coordinates off a
// HWG it has become a minority of, onto a close-enough HWG or a fresh
// one.
func (e *Endpoint) applyInterferenceRule(known []policy.HWG) {
	for _, lwg := range e.LWGs() {
		m := e.lwgs[lwg]
		if m.state != lwgActive || !m.isCoordinator() {
			continue
		}
		hv, ok := e.hwg.CurrentView(m.hwg)
		if !ok {
			continue
		}
		d := policy.Interference(m.view.Members,
			policy.HWG{GID: m.hwg, Members: hv.Members}, known, e.cfg.Policy)
		if !d.Switch {
			continue
		}
		target, fresh := d.Target, false
		if target == ids.NoHWG {
			target, fresh = e.allocHWGID(), true
			e.trace("policy", "%s: interference, creating %v", lwg, target)
		} else {
			e.trace("policy", "%s: interference, switching to %v", lwg, target)
		}
		m.startSwitch(target, fresh)
	}
}

// applyShareRule collapses pairs of HWGs with heavy membership overlap:
// the LWGs this process coordinates on the lower-identifier HWG switch to
// the higher one; the shrink rule then deletes the abandoned HWG.
func (e *Endpoint) applyShareRule(known []policy.HWG) {
	for i := 0; i < len(known); i++ {
		for j := i + 1; j < len(known); j++ {
			g1, g2 := known[i], known[j]
			if !policy.ShouldCollapse(g1.Members, g2.Members, e.cfg.Policy) {
				continue
			}
			into := policy.CollapseInto(g1.GID, g2.GID)
			from := g1.GID
			if into == g1.GID {
				from = g2.GID
			}
			e.trace("policy", "share rule: collapse %v into %v", from, into)
			for _, lwg := range e.LWGs() {
				m := e.lwgs[lwg]
				if m.state == lwgActive && m.isCoordinator() && m.hwg == from {
					m.startSwitch(into, false)
				}
			}
		}
	}
}

// applyShrinkRule leaves HWGs that have had no local LWG mapped on them
// for shrinkAfter (Figure 1's shrink rule); a HWG abandoned by everyone
// thereby disappears.
func (e *Endpoint) applyShrinkRule() {
	now := e.clock.Now()
	for _, gid := range e.hwg.Groups() {
		st := e.hwgs[gid]
		if st == nil {
			continue
		}
		if len(st.local) > 0 || e.hwgInUse(gid) {
			st.emptySince = 0
			continue
		}
		if st.emptySince == 0 {
			st.emptySince = now
			if st.emptySince == 0 {
				st.emptySince = 1 // distinguish from the "in use" sentinel
			}
			continue
		}
		if now.Sub(st.emptySince) >= shrinkAfter {
			e.trace("policy", "shrink rule: leaving %v", gid)
			_ = e.hwg.Leave(gid)
			delete(e.hwgs, gid)
		}
	}
}

// hwgInUse reports whether any local LWG is bound to, joining, or
// switching onto the HWG (such HWGs must not be shrunk away). A switch
// whose pre-switch flush is still in flight (m.sw set, switchTarget not
// yet) counts: shrinking the target out from under it would orphan the
// LWG mid-switch.
func (e *Endpoint) hwgInUse(gid ids.HWGID) bool {
	for _, m := range e.lwgs {
		if m.hwg == gid || m.switchTarget == gid {
			return true
		}
		if m.sw != nil && m.sw.target == gid {
			return true
		}
	}
	return false
}
