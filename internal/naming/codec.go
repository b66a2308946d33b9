package naming

import (
	"plwg/internal/ids"
	"plwg/internal/wire"
)

// Binary codecs (internal/wire) for every naming-service message.
// Identifiers 64–95 are reserved for this package.

const (
	wireMsgDigest byte = iota + 64
	wireMsgDelta
	wireMsgRequest
	wireMsgReply
	wireRetiredMsgSync // the full-database push, deleted in PR 23
	wireMsgMultipleMappings
)

func putEntry(b *wire.Buffer, e *Entry) {
	b.String(string(e.LWG))
	b.ViewID(e.View)
	b.ViewIDs(e.Ancestors)
	b.HWG(e.HWG)
	b.ViewID(e.HWGView)
	b.Uint64(e.Ver)
	b.Int64(e.Refreshed)
	b.Bool(e.Deleted)
}

func getEntry(r *wire.Reader) Entry {
	var e Entry
	e.LWG = ids.LWGID(r.String())
	e.View = r.ViewID()
	e.Ancestors = r.ViewIDs()
	e.HWG = r.HWG()
	e.HWGView = r.ViewID()
	e.Ver = r.Uint64()
	e.Refreshed = r.Int64()
	e.Deleted = r.Bool()
	return e
}

func putEntries(b *wire.Buffer, es []Entry) {
	b.Uint64(uint64(len(es)))
	for i := range es {
		putEntry(b, &es[i])
	}
}

func getEntries(r *wire.Reader) []Entry {
	// name length, view id 2, ancestor count, hwg, hwg view 2, ver,
	// refreshed, deleted
	n := r.Count(10)
	if n == 0 {
		return nil
	}
	es := make([]Entry, n)
	for i := range es {
		es[i] = getEntry(r)
	}
	return es
}

func putDigest(b *wire.Buffer, lwg ids.LWGID, d Digest) {
	b.String(string(lwg))
	b.Uint64(uint64(d.Count))
	b.Uint64(d.MaxVer)
	b.Uint64(d.Hash)
}

func getDigest(r *wire.Reader) (ids.LWGID, Digest) {
	lwg := ids.LWGID(r.String())
	return lwg, Digest{Count: uint32(r.Uint64()), MaxVer: r.Uint64(), Hash: r.Uint64()}
}

// WireID implements wire.Marshaler.
func (m *msgDigest) WireID() byte { return wireMsgDigest }

// MarshalWire implements wire.Marshaler.
func (m *msgDigest) MarshalWire(b *wire.Buffer) bool {
	b.PID(m.From)
	b.Byte(m.Version)
	b.Uint64(m.Gen)
	b.Uint64(m.DBHash)
	b.Bool(m.Reply)
	b.Uint64(uint64(len(m.Digests)))
	for _, d := range m.Digests {
		putDigest(b, d.LWG, d.D)
	}
	return true
}

// WireID implements wire.Marshaler.
func (m *msgDelta) WireID() byte { return wireMsgDelta }

// MarshalWire implements wire.Marshaler.
func (m *msgDelta) MarshalWire(b *wire.Buffer) bool {
	b.PID(m.From)
	b.Bool(m.Reply)
	b.Uint64(uint64(len(m.Groups)))
	for i := range m.Groups {
		g := &m.Groups[i]
		putDigest(b, g.LWG, g.D)
		putEntries(b, g.Entries)
	}
	return true
}

// WireID implements wire.Marshaler.
func (m *msgRequest) WireID() byte { return wireMsgRequest }

// MarshalWire implements wire.Marshaler.
func (m *msgRequest) MarshalWire(b *wire.Buffer) bool {
	b.Uint64(m.ReqID)
	b.PID(m.From)
	b.Int64(int64(m.Op))
	b.String(string(m.LWG))
	putEntry(b, &m.Entry)
	return true
}

// WireID implements wire.Marshaler.
func (m *msgReply) WireID() byte { return wireMsgReply }

// MarshalWire implements wire.Marshaler.
func (m *msgReply) MarshalWire(b *wire.Buffer) bool {
	b.Uint64(m.ReqID)
	putEntries(b, m.Entries)
	return true
}

// WireID implements wire.Marshaler.
func (m *MsgMultipleMappings) WireID() byte { return wireMsgMultipleMappings }

// MarshalWire implements wire.Marshaler.
func (m *MsgMultipleMappings) MarshalWire(b *wire.Buffer) bool {
	b.String(string(m.LWG))
	putEntries(b, m.Mappings)
	return true
}

func init() {
	wire.Retire(wireRetiredMsgSync)
	wire.Register(wireMsgDigest, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgDigest{From: r.PID()}
		m.Version = r.Byte()
		m.Gen = r.Uint64()
		m.DBHash = r.Uint64()
		m.Reply = r.Bool()
		if n := r.Count(4); n > 0 { // name length, count, max version, hash
			m.Digests = make([]LWGDigest, n)
			for i := range m.Digests {
				d := &m.Digests[i]
				d.LWG, d.D = getDigest(r)
			}
		}
		return m, r.Err()
	})
	wire.Register(wireMsgDelta, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgDelta{From: r.PID()}
		m.Reply = r.Bool()
		if n := r.Count(5); n > 0 { // digest 4, entry count
			m.Groups = make([]groupDelta, n)
			for i := range m.Groups {
				g := &m.Groups[i]
				g.LWG, g.D = getDigest(r)
				g.Entries = getEntries(r)
			}
		}
		return m, r.Err()
	})
	wire.Register(wireMsgRequest, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgRequest{ReqID: r.Uint64()}
		m.From = r.PID()
		m.Op = op(r.Int64())
		m.LWG = ids.LWGID(r.String())
		m.Entry = getEntry(r)
		return m, r.Err()
	})
	wire.Register(wireMsgReply, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &msgReply{ReqID: r.Uint64()}
		m.Entries = getEntries(r)
		return m, r.Err()
	})
	wire.Register(wireMsgMultipleMappings, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &MsgMultipleMappings{LWG: ids.LWGID(r.String())}
		m.Mappings = getEntries(r)
		return m, r.Err()
	})
}
