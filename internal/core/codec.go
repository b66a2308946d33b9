package core

import (
	"plwg/internal/ids"
	"plwg/internal/wire"
)

// Binary codecs (internal/wire) for every light-weight group message;
// they travel as vsync payloads inside msgData. Identifiers 32–63 are
// reserved for this package.

const (
	wireLwgData byte = iota + 32
	wireLwgBatch
	wireLwgJoinReq
	wireLwgLeaveReq
	wireLwgMoved
	wireLwgStop
	wireLwgFlushOk
	wireLwgView
	wireLwgAnnounce
	wireLwgMergeViews
	wireLwgMappedViews
	wireLwgSwitch
	wireLwgSwitchReady
)

func putViewRecord(b *wire.Buffer, rec *viewRecord) {
	b.String(string(rec.LWG))
	b.View(rec.View)
	b.ViewIDs(rec.Ancestors)
}

func getViewRecord(r *wire.Reader) viewRecord {
	return viewRecord{LWG: ids.LWGID(r.String()), View: r.View(), Ancestors: r.ViewIDs()}
}

func putViewRecords(b *wire.Buffer, recs []viewRecord) {
	b.Uint64(uint64(len(recs)))
	for i := range recs {
		putViewRecord(b, &recs[i])
	}
}

func getViewRecords(r *wire.Reader) []viewRecord {
	n := r.Count(5) // name length, view id 2, member count, ancestor count
	if n == 0 {
		return nil
	}
	recs := make([]viewRecord, n)
	for i := range recs {
		recs[i] = getViewRecord(r)
	}
	return recs
}

// WireID implements wire.Marshaler.
func (m *lwgData) WireID() byte { return wireLwgData }

// MarshalWire implements wire.Marshaler.
func (m *lwgData) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.ViewID(m.View)
	b.Bytes(m.Data)
	return true
}

func getLwgData(r *wire.Reader) *lwgData {
	m := &lwgData{LWG: ids.LWGID(r.String())}
	m.View = r.ViewID()
	// Copy out of the datagram so the payload does not pin (or alias)
	// the receive buffer.
	if raw := r.Bytes(); len(raw) > 0 {
		m.Data = append([]byte(nil), raw...)
	}
	return m
}

// WireID implements wire.Marshaler.
func (m *lwgBatch) WireID() byte { return wireLwgBatch }

// MarshalWire implements wire.Marshaler.
func (m *lwgBatch) MarshalWire(b *wire.Buffer) bool {
	b.Uint64(uint64(len(m.Msgs)))
	for _, d := range m.Msgs {
		d.MarshalWire(b)
	}
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgJoinReq) WireID() byte { return wireLwgJoinReq }

// MarshalWire implements wire.Marshaler.
func (m *lwgJoinReq) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.PID(m.From)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgLeaveReq) WireID() byte { return wireLwgLeaveReq }

// MarshalWire implements wire.Marshaler.
func (m *lwgLeaveReq) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.PID(m.From)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgMoved) WireID() byte { return wireLwgMoved }

// MarshalWire implements wire.Marshaler.
func (m *lwgMoved) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.HWG(m.Target)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgStop) WireID() byte { return wireLwgStop }

// MarshalWire implements wire.Marshaler.
func (m *lwgStop) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.ViewID(m.View)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgFlushOk) WireID() byte { return wireLwgFlushOk }

// MarshalWire implements wire.Marshaler.
func (m *lwgFlushOk) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.ViewID(m.View)
	b.PID(m.From)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgView) WireID() byte { return wireLwgView }

// MarshalWire implements wire.Marshaler.
func (m *lwgView) MarshalWire(b *wire.Buffer) bool {
	putViewRecord(b, &m.Rec)
	b.HWG(m.HWG)
	b.Bool(m.HasState)
	b.Bytes(m.State)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgAnnounce) WireID() byte { return wireLwgAnnounce }

// MarshalWire implements wire.Marshaler.
func (m *lwgAnnounce) MarshalWire(b *wire.Buffer) bool {
	putViewRecords(b, m.Views)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgMergeViews) WireID() byte { return wireLwgMergeViews }

// MarshalWire implements wire.Marshaler.
func (m *lwgMergeViews) MarshalWire(*wire.Buffer) bool { return true }

// WireID implements wire.Marshaler.
func (m *lwgMappedViews) WireID() byte { return wireLwgMappedViews }

// MarshalWire implements wire.Marshaler.
func (m *lwgMappedViews) MarshalWire(b *wire.Buffer) bool {
	putViewRecords(b, m.Views)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgSwitch) WireID() byte { return wireLwgSwitch }

// MarshalWire implements wire.Marshaler.
func (m *lwgSwitch) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.ViewID(m.View)
	b.HWG(m.Target)
	return true
}

// WireID implements wire.Marshaler.
func (m *lwgSwitchReady) WireID() byte { return wireLwgSwitchReady }

// MarshalWire implements wire.Marshaler.
func (m *lwgSwitchReady) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	b.ViewID(m.View)
	b.PID(m.From)
	return true
}

func init() {
	wire.Register(wireLwgData, func(r *wire.Reader) (wire.Marshaler, error) {
		return getLwgData(r), r.Err()
	})
	wire.Register(wireLwgBatch, func(r *wire.Reader) (wire.Marshaler, error) {
		n := r.Count(4) // name length, view id 2, data length
		m := &lwgBatch{}
		if n > 0 {
			m.Msgs = make([]*lwgData, n)
			for i := range m.Msgs {
				m.Msgs[i] = getLwgData(r)
			}
		}
		return m, r.Err()
	})
	wire.Register(wireLwgJoinReq, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgJoinReq{LWG: ids.LWGID(r.String())}
		m.From = r.PID()
		return m, r.Err()
	})
	wire.Register(wireLwgLeaveReq, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgLeaveReq{LWG: ids.LWGID(r.String())}
		m.From = r.PID()
		return m, r.Err()
	})
	wire.Register(wireLwgMoved, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgMoved{LWG: ids.LWGID(r.String())}
		m.Target = r.HWG()
		return m, r.Err()
	})
	wire.Register(wireLwgStop, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgStop{LWG: ids.LWGID(r.String())}
		m.View = r.ViewID()
		return m, r.Err()
	})
	wire.Register(wireLwgFlushOk, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgFlushOk{LWG: ids.LWGID(r.String())}
		m.View = r.ViewID()
		m.From = r.PID()
		return m, r.Err()
	})
	wire.Register(wireLwgView, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgView{Rec: getViewRecord(r)}
		m.HWG = r.HWG()
		m.HasState = r.Bool()
		if raw := r.Bytes(); len(raw) > 0 {
			m.State = append([]byte(nil), raw...)
		}
		return m, r.Err()
	})
	wire.Register(wireLwgAnnounce, func(r *wire.Reader) (wire.Marshaler, error) {
		return &lwgAnnounce{Views: getViewRecords(r)}, r.Err()
	})
	wire.Register(wireLwgMergeViews, func(r *wire.Reader) (wire.Marshaler, error) {
		return &lwgMergeViews{}, nil
	})
	wire.Register(wireLwgMappedViews, func(r *wire.Reader) (wire.Marshaler, error) {
		return &lwgMappedViews{Views: getViewRecords(r)}, r.Err()
	})
	wire.Register(wireLwgSwitch, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgSwitch{LWG: ids.LWGID(r.String())}
		m.View = r.ViewID()
		m.Target = r.HWG()
		return m, r.Err()
	})
	wire.Register(wireLwgSwitchReady, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &lwgSwitchReady{LWG: ids.LWGID(r.String())}
		m.View = r.ViewID()
		m.From = r.PID()
		return m, r.Err()
	})
}
