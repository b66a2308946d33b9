package rtnet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
)

// UDP datagrams top out near 64 KiB (and fragment at the IP layer long
// before that); protocol messages — flush fills, naming databases, state
// transfers — can exceed it. The transport therefore chunks every
// encoded envelope into frames of at most fragHeader+fragPayload bytes
// and reassembles on receipt. Loss of any chunk abandons the whole
// message after a timeout, which is indistinguishable from losing the
// datagram — the protocols already tolerate that.
//
// A datagram is either one frame, or a bundle: bundleMagic, then one or
// more (uvarint length, frame) pairs. The writer bundles the frames a
// loop turn handed off for one peer, up to maxDatagram bytes, so a burst
// of small messages costs one socket write instead of one each.

const (
	// fragPayload is the chunk payload size: safely below common UDP
	// socket buffer and loopback MTU limits.
	fragPayload = 32 * 1024
	// fragHeader is: magic(2) msgID(8) index(2) total(2).
	fragHeader = 14
	// fragTimeout abandons incomplete reassemblies.
	fragTimeout = 5 * time.Second
)

// maxDatagram is the largest datagram the transport writes: one full
// chunk, or a bundle of smaller frames.
const maxDatagram = fragHeader + fragPayload

var (
	fragMagic   = [2]byte{0xB6, 0x1D}
	bundleMagic = [2]byte{0xB6, 0x1E}
)

// isBundle reports whether a datagram carries bundle framing.
func isBundle(d []byte) bool {
	return len(d) >= 2 && d[0] == bundleMagic[0] && d[1] == bundleMagic[1]
}

// nextFrame splits the first (uvarint length, frame) pair off a bundle
// body. ok is false when the length is unreadable or runs past the end.
func nextFrame(body []byte) (frame, rest []byte, ok bool) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n > uint64(len(body)-k) {
		return nil, nil, false
	}
	end := k + int(n)
	return body[k:end], body[end:], true
}

// validBundle checks a bundle body before any of it is used: one or more
// frames that consume it exactly, each long enough for a fragment header
// and starting with the fragment magic (so a bundle never nests).
func validBundle(body []byte) bool {
	if len(body) == 0 {
		return false
	}
	for len(body) > 0 {
		f, rest, ok := nextFrame(body)
		if !ok || len(f) < fragHeader || f[0] != fragMagic[0] || f[1] != fragMagic[1] {
			return false
		}
		body = rest
	}
	return true
}

// bundledSize is what one frame adds to a bundle.
func bundledSize(frame []byte) int {
	var n [binary.MaxVarintLen64]byte
	return binary.PutUvarint(n[:], uint64(len(frame))) + len(frame)
}

// fragKey identifies a reassembly: datagrams carry no decoded sender
// identity, so the remote socket address stands in for it. The address
// is the comparable netip.AddrPort value — deriving the key from a
// received datagram costs no allocation (raddr.String() used to be one
// string allocation per datagram on the hot receive path).
type fragKey struct {
	from  netip.AddrPort // remote UDP address
	msgID uint64
}

// fragBuf holds the chunks of one message by index. The map grows with
// the chunks that arrive, not with the total a header claims, so a
// 14-byte datagram cannot make the reassembler allocate 65,535 slots.
type fragBuf struct {
	chunks  map[uint16][]byte
	total   int
	started time.Time
}

// writeFragHeader fills the fragment header at the front of dst (which
// must be at least fragHeader bytes).
func writeFragHeader(dst []byte, msgID uint64, idx, total uint16) {
	dst[0] = fragMagic[0]
	dst[1] = fragMagic[1]
	binary.BigEndian.PutUint64(dst[2:10], msgID)
	binary.BigEndian.PutUint16(dst[10:12], idx)
	binary.BigEndian.PutUint16(dst[12:14], total)
}

// fragment splits an encoded envelope into datagram-sized chunks.
func fragment(msgID uint64, data []byte) [][]byte {
	total := (len(data) + fragPayload - 1) / fragPayload
	if total == 0 {
		total = 1
	}
	if total > 0xffff {
		return nil // absurd; drop rather than overflow the header
	}
	out := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		lo := i * fragPayload
		hi := lo + fragPayload
		if hi > len(data) {
			hi = len(data)
		}
		chunk := make([]byte, fragHeader+hi-lo)
		writeFragHeader(chunk, msgID, uint16(i), uint16(total))
		copy(chunk[fragHeader:], data[lo:hi])
		out = append(out, chunk)
	}
	return out
}

// reassembler rebuilds envelopes from chunks (single-goroutine: the UDP
// read loop).
type reassembler struct {
	bufs   map[fragKey]*fragBuf
	now    func() time.Time // injectable for GC tests
	lastGC time.Time
}

func newReassembler() *reassembler {
	return newReassemblerClock(time.Now)
}

func newReassemblerClock(now func() time.Time) *reassembler {
	return &reassembler{
		bufs:   make(map[fragKey]*fragBuf),
		now:    now,
		lastGC: now(),
	}
}

// add consumes one datagram and returns the completed envelope bytes
// when the last chunk arrives. Ownership of the datagram's memory
// transfers to the reassembler: single-chunk messages return an alias
// of the payload (no copy — the dominant case on the hot receive path)
// and multi-chunk payloads are held by alias until assembly, so the
// caller must pass a slice it will never reuse (not a shared read
// buffer).
func (r *reassembler) add(from netip.AddrPort, datagram []byte) ([]byte, error) {
	if len(datagram) < fragHeader || datagram[0] != fragMagic[0] || datagram[1] != fragMagic[1] {
		return nil, fmt.Errorf("not a fragment datagram")
	}
	msgID := binary.BigEndian.Uint64(datagram[2:10])
	idx := int(binary.BigEndian.Uint16(datagram[10:12]))
	total := int(binary.BigEndian.Uint16(datagram[12:14]))
	if total == 0 || idx >= total {
		return nil, fmt.Errorf("bad fragment header idx=%d total=%d", idx, total)
	}
	payload := datagram[fragHeader:]
	if total == 1 {
		return payload, nil
	}
	k := fragKey{from: from, msgID: msgID}
	b := r.bufs[k]
	if b == nil || b.total != total {
		// New message, or conflicting totals: (re)start the buffer.
		b = &fragBuf{chunks: make(map[uint16][]byte), total: total, started: r.now()}
		r.bufs[k] = b
	}
	if _, dup := b.chunks[uint16(idx)]; !dup {
		b.chunks[uint16(idx)] = payload
	}
	if len(b.chunks) < total {
		r.gc()
		return nil, nil
	}
	delete(r.bufs, k)
	var out []byte
	for i := 0; i < total; i++ {
		out = append(out, b.chunks[uint16(i)]...)
	}
	return out, nil
}

// gc abandons stale reassemblies. Under memory pressure (many buffers
// outstanding) it sweeps on every call; otherwise it still sweeps once
// per fragTimeout so a handful of abandoned partials on a long-running
// node is reclaimed instead of living forever.
func (r *reassembler) gc() {
	now := r.now()
	if len(r.bufs) < 64 && now.Sub(r.lastGC) < fragTimeout {
		return
	}
	r.lastGC = now
	cutoff := now.Add(-fragTimeout)
	for k, b := range r.bufs {
		if b.started.Before(cutoff) {
			delete(r.bufs, k)
		}
	}
}
