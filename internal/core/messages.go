package core

import (
	"plwg/internal/ids"
	"plwg/internal/vsync"
)

// The LWG protocol messages ride inside heavy-weight group multicasts
// (vsync payloads), so every message is implicitly tagged with the HWG
// view it was sent in and delivered with view synchrony. LWG-level
// messages additionally carry the LWG view they concern (Section 5.1).

// viewRecord describes one LWG view for announcements and the
// MERGE-VIEWS exchange.
type viewRecord struct {
	LWG       ids.LWGID
	View      ids.View
	Ancestors ids.ViewIDs
}

func (r viewRecord) wireSize() int {
	return 24 + 8*len(r.View.Members) + 16*len(r.Ancestors)
}

// lwgData is a user multicast: ⟨DATA, lwg, view, data⟩ from Figure 5.
type lwgData struct {
	LWG  ids.LWGID
	View ids.ViewID
	Data []byte
}

// WireSize implements vsync.Payload.
func (m *lwgData) WireSize() int { return 24 + len(m.Data) }

// lwgBatch packs several lwgData payloads from one sender — possibly
// spanning every LWG mapped on the HWG — into a single multicast. Each
// packed message keeps its own LWG and view tag, so receivers unpack
// and filter exactly as if the messages had arrived separately.
type lwgBatch struct {
	Msgs []*lwgData
}

// WireSize implements vsync.Payload.
func (m *lwgBatch) WireSize() int {
	n := 8
	for _, d := range m.Msgs {
		n += d.WireSize()
	}
	return n
}

// lwgJoinReq asks the LWG's members (on the HWG the naming service mapped
// it to) to admit the sender.
type lwgJoinReq struct {
	LWG  ids.LWGID
	From ids.ProcessID
}

// WireSize implements vsync.Payload.
func (m *lwgJoinReq) WireSize() int { return 16 }

// lwgLeaveReq asks the LWG coordinator to exclude the sender.
type lwgLeaveReq struct {
	LWG  ids.LWGID
	From ids.ProcessID
}

// WireSize implements vsync.Payload.
func (m *lwgLeaveReq) WireSize() int { return 16 }

// lwgMoved is the forward-pointer reply (Section 3.1): the LWG the sender
// asked about was switched to another HWG.
type lwgMoved struct {
	LWG    ids.LWGID
	Target ids.HWGID
}

// WireSize implements vsync.Payload.
func (m *lwgMoved) WireSize() int { return 16 }

// lwgStop starts a LWG-level flush: members of the view stop sending and
// answer with lwgFlushOk. Only the LWG's members react, so other LWGs on
// the same HWG are not disturbed (minimal interference, Section 3.1).
type lwgStop struct {
	LWG  ids.LWGID
	View ids.ViewID
}

// WireSize implements vsync.Payload.
func (m *lwgStop) WireSize() int { return 24 }

// lwgFlushOk confirms the sender has quiesced the LWG view.
type lwgFlushOk struct {
	LWG  ids.LWGID
	View ids.ViewID
	From ids.ProcessID
}

// WireSize implements vsync.Payload.
func (m *lwgFlushOk) WireSize() int { return 24 }

// lwgView installs a LWG view (after a join, leave, or switch). It follows
// the LWG flush, so it closes the old view on the same message set at
// every member only as far as the HWG delivers it after the members'
// old-view data (see maybeLwgReconfig).
type lwgView struct {
	Rec viewRecord
	// HWG is the heavy-weight group the view is (now) mapped on.
	HWG ids.HWGID
	// HasState marks a state-transfer payload for the view's joiners.
	HasState bool
	// State is the coordinator's application-state snapshot.
	State []byte
}

// WireSize implements vsync.Payload.
func (m *lwgView) WireSize() int { return 8 + m.Rec.wireSize() + len(m.State) }

// lwgAnnounce advertises the sender's LWG views mapped on this HWG. It is
// multicast after every HWG view change and lets members discover
// concurrent LWG views even when no data traffic flows (a liveness
// supplement to the paper's data-triggered local peer discovery of
// Section 6.3).
type lwgAnnounce struct {
	Views []viewRecord
}

// WireSize implements vsync.Payload.
func (m *lwgAnnounce) WireSize() int {
	n := 8
	for _, r := range m.Views {
		n += r.wireSize()
	}
	return n
}

// lwgMergeViews is Figure 5's MERGE-VIEWS trigger.
type lwgMergeViews struct{}

// WireSize implements vsync.Payload.
func (m *lwgMergeViews) WireSize() int { return 8 }

// lwgMappedViews is Figure 5's ALL-VIEWS/MAPPED-VIEWS message: the
// sender's current LWG views mapped on this HWG.
type lwgMappedViews struct {
	Views []viewRecord
}

// WireSize implements vsync.Payload.
func (m *lwgMappedViews) WireSize() int {
	n := 8
	for _, r := range m.Views {
		n += r.wireSize()
	}
	return n
}

// lwgSwitch instructs the members of a LWG view to re-map onto Target
// (the switching protocol, Sections 3 and 6.2). It is multicast on the
// old HWG.
type lwgSwitch struct {
	LWG    ids.LWGID
	View   ids.ViewID
	Target ids.HWGID
}

// WireSize implements vsync.Payload.
func (m *lwgSwitch) WireSize() int { return 32 }

// lwgSwitchReady tells the LWG coordinator (on the target HWG) that the
// sender has joined the target and is ready to re-bind.
type lwgSwitchReady struct {
	LWG  ids.LWGID
	View ids.ViewID
	From ids.ProcessID
}

// WireSize implements vsync.Payload.
func (m *lwgSwitchReady) WireSize() int { return 24 }

var (
	_ vsync.Payload = (*lwgData)(nil)
	_ vsync.Payload = (*lwgBatch)(nil)
	_ vsync.Payload = (*lwgJoinReq)(nil)
	_ vsync.Payload = (*lwgLeaveReq)(nil)
	_ vsync.Payload = (*lwgMoved)(nil)
	_ vsync.Payload = (*lwgStop)(nil)
	_ vsync.Payload = (*lwgFlushOk)(nil)
	_ vsync.Payload = (*lwgView)(nil)
	_ vsync.Payload = (*lwgAnnounce)(nil)
	_ vsync.Payload = (*lwgMergeViews)(nil)
	_ vsync.Payload = (*lwgMappedViews)(nil)
	_ vsync.Payload = (*lwgSwitch)(nil)
	_ vsync.Payload = (*lwgSwitchReady)(nil)
)
