package vsync

import (
	"fmt"
	"sort"

	"plwg/internal/ids"
	"plwg/internal/wire"
)

// Binary codecs (internal/wire) for every heavy-weight group message:
// the real transport has no other wire format. Identifiers 1–31 are
// reserved for this package.

const (
	wireMsgData          byte = iota + 1
	wireRetiredOrdToken       // the total-order token, deleted with the sequencer
	wireRetiredMsgAck         // the per-message ack, deleted with its stability scheme
	wireRetiredAckVector      // the standalone ack vector, now carried by the heartbeat
	wireMsgHeartbeat
	wireMsgNack
	wireMsgRetrans
	wireMsgPresence
	wireMsgJoinReq
	wireMsgLeaveReq
	wireMsgStop
	wireMsgAbort
	wireMsgFlushOk
	wireMsgFlushPull
	wireMsgFlushFill
	wireMsgNewView

	// wireBenchPayload (top of the vsync range) is the stand-in
	// application payload of the codec microbenchmarks.
	wireBenchPayload byte = 31
)

func putMsgKey(b *wire.Buffer, k msgKey) {
	b.ViewID(k.View)
	b.PID(k.Sender)
	b.Uint64(k.Seq)
}

func getMsgKey(r *wire.Reader) msgKey {
	return msgKey{View: r.ViewID(), Sender: r.PID(), Seq: r.Uint64()}
}

func putMsgKeys(b *wire.Buffer, ks []msgKey) {
	b.Uint64(uint64(len(ks)))
	for _, k := range ks {
		putMsgKey(b, k)
	}
}

func getMsgKeys(r *wire.Reader) []msgKey {
	n := r.Count(4) // view id 2, sender 1, seq 1
	if n == 0 {
		return nil
	}
	ks := make([]msgKey, n)
	for i := range ks {
		ks[i] = getMsgKey(r)
	}
	return ks
}

func putEpoch(b *wire.Buffer, e epoch) {
	b.PID(e.Initiator)
	b.Uint64(e.N)
}

func getEpoch(r *wire.Reader) epoch {
	return epoch{Initiator: r.PID(), N: r.Uint64()}
}

// putSeqMap encodes a per-process sequence vector with sorted keys, so
// identical vectors encode to identical bytes.
func putSeqMap(b *wire.Buffer, m map[ids.ProcessID]uint64) {
	b.Uint64(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := make([]ids.ProcessID, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		b.PID(p)
		b.Uint64(m[p])
	}
}

func getSeqMap(r *wire.Reader) map[ids.ProcessID]uint64 {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[ids.ProcessID]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		p := r.PID()
		m[p] = r.Uint64()
	}
	return m
}

// WireID implements wire.Marshaler.
func (m *msgData) WireID() byte { return wireMsgData }

// MarshalWire implements wire.Marshaler. It reports false when the
// payload has no codec: the message cannot be sent.
func (m *msgData) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.ViewID(m.View)
	b.PID(m.Sender)
	b.Uint64(m.Seq)
	putSeqMap(b, m.Acks)
	if m.Payload == nil {
		b.Byte(0)
		return true
	}
	pm, ok := m.Payload.(wire.Marshaler)
	if !ok {
		return false
	}
	b.Byte(1)
	return wire.Encode(b, pm)
}

func getMsgData(r *wire.Reader) (*msgData, error) {
	m := &msgData{GID: r.HWG()}
	m.View = r.ViewID()
	m.Sender = r.PID()
	m.Seq = r.Uint64()
	m.Acks = getSeqMap(r)
	if r.Bool() {
		pm, err := wire.Decode(r)
		if err != nil {
			return nil, err
		}
		p, ok := pm.(Payload)
		if !ok {
			return nil, fmt.Errorf("vsync: decoded payload %T is not a Payload", pm)
		}
		m.Payload = p
	}
	return m, r.Err()
}

// putMsgDatas encodes the message copies a retransmission, flush fill or
// view installation carries.
func putMsgDatas(b *wire.Buffer, ds []*msgData) bool {
	b.Uint64(uint64(len(ds)))
	for _, d := range ds {
		if !d.MarshalWire(b) {
			return false
		}
	}
	return true
}

func getMsgDatas(r *wire.Reader) ([]*msgData, error) {
	n := r.Count(7) // gid, view id 2, sender, seq, acks, payload flag
	if n == 0 {
		return nil, r.Err()
	}
	ds := make([]*msgData, n)
	for i := range ds {
		d, err := getMsgData(r)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// WireID implements wire.Marshaler.
func (m *msgHeartbeat) WireID() byte { return wireMsgHeartbeat }

// MarshalWire implements wire.Marshaler.
func (m *msgHeartbeat) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.PID(m.From)
	b.ViewID(m.View)
	b.Uint64(m.MaxSeq)
	putSeqMap(b, m.Acks)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgNack) WireID() byte { return wireMsgNack }

// MarshalWire implements wire.Marshaler.
func (m *msgNack) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.PID(m.From)
	putMsgKeys(b, m.Keys)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgRetrans) WireID() byte { return wireMsgRetrans }

// MarshalWire implements wire.Marshaler.
func (m *msgRetrans) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	return putMsgDatas(b, m.Msgs)
}

// WireID implements wire.Marshaler.
func (m *msgPresence) WireID() byte { return wireMsgPresence }

// MarshalWire implements wire.Marshaler.
func (m *msgPresence) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.View(m.View)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgJoinReq) WireID() byte { return wireMsgJoinReq }

// MarshalWire implements wire.Marshaler.
func (m *msgJoinReq) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.PID(m.From)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgLeaveReq) WireID() byte { return wireMsgLeaveReq }

// MarshalWire implements wire.Marshaler.
func (m *msgLeaveReq) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	b.PID(m.From)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgStop) WireID() byte { return wireMsgStop }

// MarshalWire implements wire.Marshaler.
func (m *msgStop) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	b.ViewIDs(m.Targets)
	b.Members(m.Joiners)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgAbort) WireID() byte { return wireMsgAbort }

// MarshalWire implements wire.Marshaler.
func (m *msgAbort) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgFlushOk) WireID() byte { return wireMsgFlushOk }

// MarshalWire implements wire.Marshaler.
func (m *msgFlushOk) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	b.PID(m.From)
	b.ViewID(m.View)
	b.Bool(m.Joining)
	b.Bool(m.Leaving)
	putSeqMap(b, m.Digest)
	putMsgKeys(b, m.Extras)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgFlushPull) WireID() byte { return wireMsgFlushPull }

// MarshalWire implements wire.Marshaler.
func (m *msgFlushPull) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	putMsgKeys(b, m.Keys)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgFlushFill) WireID() byte { return wireMsgFlushFill }

// MarshalWire implements wire.Marshaler.
func (m *msgFlushFill) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	b.PID(m.From)
	return putMsgDatas(b, m.Msgs)
}

// WireID implements wire.Marshaler.
func (m *msgNewView) WireID() byte { return wireMsgNewView }

// MarshalWire implements wire.Marshaler.
func (m *msgNewView) MarshalWire(b *wire.Buffer) bool {
	b.HWG(m.GID)
	putEpoch(b, m.Epoch)
	b.View(m.View)
	b.ViewIDs(m.PrevViews)
	return putMsgDatas(b, m.FlushData)
}

func init() {
	wire.Retire(wireRetiredOrdToken)
	wire.Retire(wireRetiredMsgAck)
	wire.Retire(wireRetiredAckVector)
	wire.Register(wireMsgData, func(r *wire.Reader) (wire.Marshaler, error) {
		return getMsgData(r)
	})
	wire.Register(wireMsgHeartbeat, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgHeartbeat{GID: r.HWG()}
		m.From = r.PID()
		m.View = r.ViewID()
		m.MaxSeq = r.Uint64()
		m.Acks = getSeqMap(r)
		return m, r.Err()
	})
	wire.Register(wireMsgNack, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgNack{GID: r.HWG()}
		m.From = r.PID()
		m.Keys = getMsgKeys(r)
		return m, r.Err()
	})
	wire.Register(wireMsgRetrans, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgRetrans{GID: r.HWG()}
		var err error
		m.Msgs, err = getMsgDatas(r)
		return m, err
	})
	wire.Register(wireMsgPresence, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgPresence{GID: r.HWG()}
		m.View = r.View()
		return m, r.Err()
	})
	wire.Register(wireMsgJoinReq, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgJoinReq{GID: r.HWG()}
		m.From = r.PID()
		return m, r.Err()
	})
	wire.Register(wireMsgLeaveReq, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgLeaveReq{GID: r.HWG()}
		m.From = r.PID()
		return m, r.Err()
	})
	wire.Register(wireMsgStop, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgStop{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		m.Targets = r.ViewIDs()
		m.Joiners = r.Members()
		return m, r.Err()
	})
	wire.Register(wireMsgAbort, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgAbort{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		return m, r.Err()
	})
	wire.Register(wireMsgFlushOk, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgFlushOk{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		m.From = r.PID()
		m.View = r.ViewID()
		m.Joining = r.Bool()
		m.Leaving = r.Bool()
		m.Digest = getSeqMap(r)
		m.Extras = getMsgKeys(r)
		return m, r.Err()
	})
	wire.Register(wireMsgFlushPull, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgFlushPull{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		m.Keys = getMsgKeys(r)
		return m, r.Err()
	})
	wire.Register(wireMsgFlushFill, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgFlushFill{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		m.From = r.PID()
		var err error
		m.Msgs, err = getMsgDatas(r)
		return m, err
	})
	wire.Register(wireMsgNewView, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgNewView{GID: r.HWG()}
		m.Epoch = getEpoch(r)
		m.View = r.View()
		m.PrevViews = r.ViewIDs()
		var err error
		m.FlushData, err = getMsgDatas(r)
		return m, err
	})
	wire.Register(wireBenchPayload, func(r *wire.Reader) (wire.Marshaler, error) {
		p := &benchPayload{}
		if raw := r.Bytes(); len(raw) > 0 {
			p.Data = append([]byte(nil), raw...)
		}
		return p, r.Err()
	})
}
