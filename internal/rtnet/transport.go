// The transport's data plane runs around the single-threaded driver
// loop, which keeps the protocol itself:
//
//	   UDP socket
//	       │ ReadFromUDPAddrPort
//	       ▼
//	reader goroutine: copy out of the read buffer, reassembly,
//	bundle + envelope decode
//	       │ Driver.doEnvBatch (one submission per datagram)
//	       ▼
//	driver loop (single goroutine)
//	subscription filter, partition filter, handler upcalls,
//	protocol stacks, fault-injection decisions, encode + fragment
//	       │ sendChunks → send rings (bounded, sharded by peer)
//	       ▼
//	writer goroutines: take what is queued, bundle per peer
//	       │ WriteToUDPAddrPort
//	       ▼
//	   UDP socket
//
// Invariants that make this safe:
//
//   - One goroutine reads and decodes every datagram, so all fragments
//     of a message reassemble in its one private reassembler, and
//     per-source arrival order is preserved end to end (socket order →
//     frame order within a bundle → inbox FIFO).
//   - Every protocol decision that consumes randomness — the fault
//     table's drop/duplicate/delay plan — runs on the loop, in the
//     order the protocol sends, so a seed replays the identical fault
//     schedule and lwgcheck -rtnet reproducers stay deterministic.
//     Writers only move already-decided bytes.
//   - Encoded single-datagram messages fan out to N peers as one
//     reference-counted wire.Buffer (the fragment header is written in
//     place); the last writer to finish releases it to the pool.
//   - The send path shards by destination: each writer owns one ring
//     and each peer maps to one ring, so a peer's frames leave in FIFO
//     order. (A single shared ring with concurrent writers would
//     reorder adjacent same-peer frames on every send; the
//     protocols treat reordering as rare transport misbehaviour to
//     repair, not a steady state to live under.)
//   - A writer that wakes for one frame also takes whatever else is
//     already on its ring, without waiting for more, and packs each
//     peer's frames, in order, into datagrams of at most maxDatagram
//     bytes. A frame that travels alone leaves byte for byte as it was
//     queued, so bundling changes the number of writes, never the frames
//     or the fault plan that chose them.
//   - The rings are bounded: when a writer falls behind, enqueue drops
//     the frame and counts rtnet_send_ring_overflow_total instead
//     of blocking the protocol loop. UDP loss is already part of the
//     model; the vsync NACK machinery repairs it.
//   - The receive side has no queue of its own: the reader never blocks
//     on the loop (the driver inbox is unbounded), and while it decodes,
//     arriving datagrams wait in the socket buffer, the component sized
//     to absorb bursts.
//
// Shutdown ordering: Close closes t.closed and the socket; the reader
// unblocks and exits; writers exit on t.closed; Close then drains any
// requests left in the rings to release their buffers.
package rtnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
	"plwg/internal/wire"
)

// envelope is the unit of transfer: one encoded envelope per UDP
// datagram (pre-fragmentation). On the wire it is one header byte, the
// trace context when the header says so, then From, Addr and the
// message in the binary codec (internal/wire): the only wire format, so
// every message type that can be sent implements wire.Marshaler.
type envelope struct {
	From ids.ProcessID
	Addr string
	Uni  bool
	Msg  netsim.Message

	// tc is the optional wire-level trace context.
	tc *wire.TraceCtx
}

// The envelope header byte: layout version in the low nibble, flags in
// the high one. A receiver counts any other version, and any flag it
// does not know, as a malformed datagram.
const (
	envVersion  byte = 0x01 // From, Addr, then the identifier-prefixed message
	envFlagTC   byte = 0x80 // a wire.TraceCtx precedes From
	envFlagUni  byte = 0x40 // unicast: delivered without a subscription check
	envFlagMask      = envFlagTC | envFlagUni
)

const (
	// sendWriters is the number of writer goroutines. Each drains its
	// own send-ring shard and peers map to shards by address hash,
	// preserving per-peer frame order.
	sendWriters = 2
	// sendRingSize bounds the send rings' total capacity across shards,
	// in frames. When a destination's shard is full the frame is
	// dropped and counted in rtnet_send_ring_overflow_total — explicit
	// backpressure instead of silently blocking the protocol loop.
	sendRingSize = 4096
)

// sendChunk is one frame of an encoded message, pre-fault-plan. When
// buf is non-nil, data aliases the refcounted buffer and every enqueue
// must Retain it; when nil, data is a GC-owned slice shared freely.
type sendChunk struct {
	data []byte
	buf  *wire.Buffer
}

// sendReq is one frame on the send ring. The request owns one
// reference on buf (when non-nil); whoever finishes with the request —
// writer, overflow drop, or shutdown drain — releases it.
type sendReq struct {
	data []byte
	buf  *wire.Buffer
	to   netip.AddrPort
}

// Transport is a netsim.Transport over UDP. Multicast is emulated by
// unicast fan-out to every peer; receivers filter by their local
// subscriptions, which matches the semantics of the simulated network
// (and of IP multicast on a LAN segment).
type Transport struct {
	d       *Driver
	pid     ids.ProcessID
	conn    *net.UDPConn
	peers   map[ids.ProcessID]*net.UDPAddr
	peersAP map[ids.ProcessID]netip.AddrPort
	order   []ids.ProcessID // deterministic fan-out order

	// Loop-confined state.
	subs    map[netsim.Addr]bool
	handler netsim.Handler

	// nextMsgID numbers outgoing envelopes for fragmentation
	// (loop-confined).
	nextMsgID uint64
	// chunkScratch is the loop-confined scratch slice encodeChunks
	// reuses across messages, so steady-state sends allocate no chunk
	// headers.
	chunkScratch []sendChunk

	// faults injects per-link loss/dup/reorder/delay/one-way-block on
	// the send path; a partition is a set of link Block rules. Mutable
	// from any goroutine (see faults.go).
	faults *faultTable

	// tracer receives wire-level receive events (WireRecv) so live rings
	// record cross-node causality; nil disables them. Set before Start.
	tracer trace.Tracer
	// sampleEvery gates the trace context on high-volume message kinds
	// (data/ack/heartbeat/nack): every Nth such send is stamped, the
	// rest carry no context. Control traffic is always stamped. 0
	// disables contexts entirely. Loop-confined with tcSeq.
	sampleEvery int
	tcSeq       uint64
	// inTC is the "current inbound trace context" slot: set for the
	// duration of one deliverEnv handler call, so the protocol stacks —
	// which run synchronously on the driver loop under deliverEnv — can
	// pick up the sender context without any interface change.
	// Loop-confined.
	inTC   wire.TraceCtx
	inTCOK bool

	// sendQs are the send rings, one per writer, sharded by destination
	// so each peer's datagrams stay FIFO (concurrent writers draining one
	// shared ring would reorder adjacent datagrams to the same peer on
	// every send, which the protocols tolerate as rare transport
	// misbehaviour, not as the steady state). Built by Start.
	sendQs []chan sendReq

	// ins holds the wire-level instruments. Counters are atomic and
	// nil-safe, so the reader goroutine and timer callbacks may bump
	// them without coordination.
	ins transportMetrics

	closeOnce sync.Once
	closed    chan struct{}
	readerWG  sync.WaitGroup
	writerWG  sync.WaitGroup
}

var _ netsim.Transport = (*Transport)(nil)

// transportMetrics are the transport's wire-level instruments. With
// metrics disabled every field is nil and the nil-receiver methods
// no-op.
type transportMetrics struct {
	dgramsSent       *metrics.Counter
	bytesSent        *metrics.Counter
	dgramsRecv       *metrics.Counter
	bytesRecv        *metrics.Counter
	faultDrops       *metrics.Counter
	dgramsMalformed  *metrics.Counter
	sendErrors       *metrics.Counter
	sendRingOverflow *metrics.Counter
	bundledFrames    *metrics.Counter
	sendRingDepth    *metrics.Gauge
	traceCtxSent     *metrics.Counter
	traceCtxRecv     *metrics.Counter
}

// Instrument resolves the transport's counters from the registry (nil
// disables them). Call before Start.
func (t *Transport) Instrument(r *metrics.Registry) {
	t.ins = transportMetrics{
		dgramsSent:       r.Counter("rtnet_datagrams_sent_total"),
		bytesSent:        r.Counter("rtnet_bytes_sent_total"),
		dgramsRecv:       r.Counter("rtnet_datagrams_recv_total"),
		bytesRecv:        r.Counter("rtnet_bytes_recv_total"),
		faultDrops:       r.Counter("rtnet_fault_drops_total"),
		dgramsMalformed:  r.Counter("rtnet_datagrams_malformed_total"),
		sendErrors:       r.Counter("rtnet_send_errors_total"),
		sendRingOverflow: r.Counter("rtnet_send_ring_overflow_total"),
		bundledFrames:    r.Counter("rtnet_bundled_frames_total"),
		sendRingDepth:    r.Gauge("rtnet_send_ring_depth"),
		traceCtxSent:     r.Counter("rtnet_trace_ctx_sent_total"),
		traceCtxRecv:     r.Counter("rtnet_trace_ctx_recv_total"),
	}
}

// TraceContext enables wire-level trace contexts: every control send —
// and every sampleEvery'th high-volume send (data/ack/heartbeat/nack) —
// carries a wire.TraceCtx, which the receiving node records into tracer
// (when non-nil) as a WireRecv event and exposes to its protocol stacks
// for one-way latency measurement. sampleEvery <= 0 disables contexts.
// Call before Start.
func (t *Transport) TraceContext(tracer trace.Tracer, sampleEvery int) {
	if _, nop := tracer.(trace.Nop); nop {
		tracer = nil
	}
	t.tracer = tracer
	t.sampleEvery = sampleEvery
}

// InboundTraceCtx returns the trace context of the envelope currently
// being delivered, if it carried one. Only meaningful on the driver
// loop, during a handler call under deliverEnv; the slot is cleared when
// the delivery returns.
func (t *Transport) InboundTraceCtx() (wire.TraceCtx, bool) {
	return t.inTC, t.inTCOK
}

// stampTC attaches a trace context to an outgoing envelope, applying the
// sampling policy. Loop-confined (tcSeq and the fault RNG share the
// loop's historical-order guarantee).
func (t *Transport) stampTC(env *envelope) {
	if t.sampleEvery <= 0 {
		return
	}
	if k, ok := env.Msg.(netsim.Kinder); ok {
		switch k.Kind() {
		case "data", "ack", "heartbeat", "nack":
			t.tcSeq++
			if t.tcSeq%uint64(t.sampleEvery) != 0 {
				return
			}
		}
	}
	env.tc = &wire.TraceCtx{
		Origin:  int64(t.pid),
		VT:      int64(t.d.Sim().Now()),
		Wall:    time.Now().UnixNano(),
		Sampled: true,
		Ref:     env.Addr,
	}
	t.ins.traceCtxSent.Inc()
}

// sendFailed accounts for a message that could not be encoded — a type
// without a wire codec, or one carrying a payload without one. That is
// a bug in whatever built the message, so it must be loud: a counted
// send error and a trace event naming the Go type, never a silent drop.
func (t *Transport) sendFailed(env *envelope) {
	t.ins.sendErrors.Inc()
	if t.tracer != nil {
		t.tracer.Trace(trace.Event{
			At:    t.d.Sim().Now(),
			Node:  t.pid,
			Layer: "net",
			What:  trace.WireSendError,
			Text:  fmt.Sprintf("%T to %s cannot be encoded", env.Msg, env.Addr),
			Ref:   env.Addr,
			Data:  fmt.Sprintf("%T", env.Msg),
		})
	}
}

func (t *Transport) countSend(n int) {
	t.ins.dgramsSent.Inc()
	t.ins.bytesSent.Add(int64(n))
}

// NewTransport builds the node's transport on an already-bound UDP
// connection. peers maps every process (other than this one) to its UDP
// address. Call SetHandler before Start.
func NewTransport(d *Driver, pid ids.ProcessID, conn *net.UDPConn, peers map[ids.ProcessID]*net.UDPAddr) *Transport {
	t := &Transport{
		d:      d,
		pid:    pid,
		conn:   conn,
		subs:   make(map[netsim.Addr]bool),
		faults: newFaultTable(1),
		closed: make(chan struct{}),
	}
	filtered := make(map[ids.ProcessID]*net.UDPAddr, len(peers))
	for p, a := range peers {
		if p == pid {
			continue
		}
		filtered[p] = a
	}
	t.setPeers(filtered)
	return t
}

// setPeers installs the address book (and its netip mirror, used by the
// send path to avoid per-datagram conversions). Call before Start.
func (t *Transport) setPeers(peers map[ids.ProcessID]*net.UDPAddr) {
	t.peers = peers
	t.peersAP = make(map[ids.ProcessID]netip.AddrPort, len(peers))
	t.order = t.order[:0]
	for p, a := range peers {
		// Unmap 4-in-6 addresses (UDPAddr.AddrPort yields ::ffff:a.b.c.d
		// for IPv4): an AF_INET socket rejects the mapped form.
		ap := a.AddrPort()
		t.peersAP[p] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		t.order = append(t.order, p)
	}
	t.order = []ids.ProcessID(ids.NewMembers(t.order...))
}

// SetHandler installs the node's message dispatcher (typically a
// netsim.Mux handler). Must be called before Start.
func (t *Transport) SetHandler(h netsim.Handler) { t.handler = h }

// Start launches the data plane: the send-ring writers and the UDP
// reader.
func (t *Transport) Start() {
	t.sendQs = make([]chan sendReq, sendWriters)
	for i := range t.sendQs {
		t.sendQs[i] = make(chan sendReq, sendRingSize/sendWriters)
	}
	for _, q := range t.sendQs {
		t.writerWG.Add(1)
		go t.writeLoop(q)
	}
	t.readerWG.Add(1)
	go t.readLoop()
}

// Close shuts the data plane down: the reader exits, then the writers
// stop, then any requests still queued on the rings are drained so their
// buffers return to the pool.
func (t *Transport) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	_ = t.conn.Close()
	t.readerWG.Wait()
	t.writerWG.Wait()
	for _, q := range t.sendQs {
	drain:
		for {
			select {
			case req := <-q:
				if req.buf != nil {
					req.buf.Release()
				}
			default:
				break drain
			}
		}
	}
}

// LocalAddr returns the bound UDP address.
func (t *Transport) LocalAddr() *net.UDPAddr {
	a, _ := t.conn.LocalAddr().(*net.UDPAddr)
	return a
}

// Sim implements netsim.Transport.
func (t *Transport) Sim() *sim.Sim { return t.d.Sim() }

// Subscribe implements netsim.Transport (local node only).
func (t *Transport) Subscribe(id netsim.NodeID, addr netsim.Addr) {
	if id == t.pid {
		t.subs[addr] = true
	}
}

// Unsubscribe implements netsim.Transport (local node only).
func (t *Transport) Unsubscribe(id netsim.NodeID, addr netsim.Addr) {
	if id == t.pid {
		delete(t.subs, addr)
	}
}

// SeedFaults reseeds the fault-injection RNG; decisions are a pure
// function of the seed and the outgoing datagram sequence. Safe from
// any goroutine.
func (t *Transport) SeedFaults(seed int64) { t.faults.reseed(seed) }

// SetFaults replaces the whole fault configuration (nil clears all
// rules). Safe from any goroutine, including while traffic flows.
func (t *Transport) SetFaults(fs *faults.Spec) { t.faults.install(fs) }

// SetLinkFault overrides the rule for the directed link to one peer
// (nil removes the override, falling back to the default rule). Safe
// from any goroutine.
func (t *Transport) SetLinkFault(to ids.ProcessID, r *faults.Rule) { t.faults.setLink(to, r) }

// dispatch hands one frame to the wire: a non-blocking enqueue on the
// destination's send-ring shard, dropping (with the overflow counter)
// when that writer has fallen a full ring behind. Takes ownership of
// the request's buffer reference.
func (t *Transport) dispatch(req sendReq) {
	q := t.sendQs[apHash(req.to)%uint32(len(t.sendQs))]
	select {
	case q <- req:
		t.ins.sendRingDepth.Set(int64(len(q)))
	default:
		t.ins.sendRingOverflow.Inc()
		if req.buf != nil {
			req.buf.Release()
		}
	}
}

// write performs one socket write. Failures count in
// rtnet_send_errors_total unless the transport is shutting down
// (closing the socket makes in-flight writes fail by design).
func (t *Transport) write(datagram []byte, to netip.AddrPort) {
	if _, err := t.conn.WriteToUDPAddrPort(datagram, to); err != nil {
		select {
		case <-t.closed:
		default:
			t.ins.sendErrors.Inc()
		}
		return
	}
	t.countSend(len(datagram))
}

// writeLoop is one send-ring writer. Each wake-up takes the request that
// woke it plus whatever is already queued — at most one ring's worth,
// and never waiting for more — and writes them as one burst.
func (t *Transport) writeLoop(q chan sendReq) {
	defer t.writerWG.Done()
	var (
		reqs   []sendReq // the current burst, reused across wake-ups
		bundle []byte    // bundle assembly scratch, reused likewise
	)
	for {
		select {
		case <-t.closed:
			return
		case req := <-q:
			reqs = append(reqs[:0], req)
		drain:
			for len(reqs) < cap(q) {
				select {
				case req := <-q:
					reqs = append(reqs, req)
				default:
					break drain
				}
			}
			bundle = t.writeBurst(reqs, bundle)
		}
	}
}

// writeBurst writes a burst of send requests and releases every
// request's buffer reference. Per destination, in ring order, it packs
// consecutive frames into one bundle while the bundle stays within
// maxDatagram; a frame that no later frame for its peer fits beside
// goes out alone, unchanged. Requests to different peers may leave in a different order
// than they were queued; those to one peer never do. bundle is scratch
// for assembling bundles; the grown scratch is returned for reuse.
func (t *Transport) writeBurst(reqs []sendReq, bundle []byte) []byte {
	for i := range reqs {
		if reqs[i].data == nil {
			continue // already written in an earlier bundle
		}
		to := reqs[i].to
		size, last, n := len(bundleMagic)+bundledSize(reqs[i].data), i, 1
		for j := i + 1; j < len(reqs); j++ {
			if reqs[j].data == nil || reqs[j].to != to {
				continue
			}
			s := bundledSize(reqs[j].data)
			if size+s > maxDatagram {
				break
			}
			size, last, n = size+s, j, n+1
		}
		if n == 1 {
			t.write(reqs[i].data, to)
			if reqs[i].buf != nil {
				reqs[i].buf.Release()
			}
			reqs[i] = sendReq{}
			continue
		}
		bundle = append(bundle[:0], bundleMagic[:]...)
		for j := i; j <= last; j++ {
			if reqs[j].data == nil || reqs[j].to != to {
				continue
			}
			bundle = binary.AppendUvarint(bundle, uint64(len(reqs[j].data)))
			bundle = append(bundle, reqs[j].data...)
			if reqs[j].buf != nil {
				reqs[j].buf.Release()
			}
			reqs[j] = sendReq{}
		}
		t.write(bundle, to)
		t.ins.bundledFrames.Add(int64(n))
	}
	return bundle
}

// sendChunks pushes the datagrams of one message to one peer through
// the fault table: drop, duplicate, or delay each chunk as the link's
// rule dictates. Must be called on the driver loop — the fault plan
// consumes the deterministic RNG, and keeping that on-loop is what
// makes a seed replay the identical fault schedule regardless of how
// many writer goroutines move the bytes afterwards.
func (t *Transport) sendChunks(to ids.ProcessID, addr netip.AddrPort, chunks []sendChunk) {
	for _, c := range chunks {
		send, delays := t.faults.plan(to)
		if !send {
			t.ins.faultDrops.Inc()
			continue
		}
		if delays == nil {
			if c.buf != nil {
				c.buf.Retain()
			}
			t.dispatch(sendReq{data: c.data, buf: c.buf, to: addr})
			continue
		}
		for _, d := range delays {
			if d <= 0 {
				if c.buf != nil {
					c.buf.Retain()
				}
				t.dispatch(sendReq{data: c.data, buf: c.buf, to: addr})
				continue
			}
			c := c
			if c.buf != nil {
				c.buf.Retain()
			}
			t.d.Sim().After(d, func() {
				select {
				case <-t.closed:
					if c.buf != nil {
						c.buf.Release()
					}
				default:
					t.dispatch(sendReq{data: c.data, buf: c.buf, to: addr})
				}
			})
		}
	}
}

// encodeChunks encodes env and splits it into datagram chunks, bumping
// the message counter. The common single-datagram case writes the
// fragment header in place in the pooled encode buffer, so the fan-out
// to N peers shares one refcounted buffer with zero copies; larger
// messages fall back to per-chunk GC-owned slices. The scratch slice is
// loop-confined and reused across messages; callers must hand it back
// via t.chunkScratch = chunks[:0] after dispatching, and must Release
// buf (when non-nil) to drop the encoder's own reference.
func (t *Transport) encodeChunks(env *envelope) (chunks []sendChunk, buf *wire.Buffer) {
	b, err := encodeEnvelopeFramed(env)
	if err != nil {
		t.sendFailed(env)
		return nil, nil
	}
	t.nextMsgID++
	if len(b.B) <= fragHeader+fragPayload {
		writeFragHeader(b.B, t.nextMsgID, 0, 1)
		return append(t.chunkScratch[:0], sendChunk{data: b.B, buf: b}), b
	}
	chunks = t.chunkScratch[:0]
	for _, c := range fragment(t.nextMsgID, b.B[fragHeader:]) {
		chunks = append(chunks, sendChunk{data: c})
	}
	b.Release()
	return chunks, nil
}

// Multicast implements netsim.Transport: fan out to every peer and loop
// back locally if subscribed. Must be called on the driver loop.
func (t *Transport) Multicast(from netsim.NodeID, addr netsim.Addr, msg netsim.Message) {
	if from != t.pid {
		return
	}
	env := envelope{From: from, Addr: string(addr), Msg: msg}
	t.stampTC(&env)
	chunks, buf := t.encodeChunks(&env)
	if chunks == nil {
		return // counted by encodeChunks
	}
	for _, p := range t.order {
		t.sendChunks(p, t.peersAP[p], chunks)
	}
	if buf != nil {
		buf.Release()
	}
	t.chunkScratch = chunks[:0]
	if t.subs[addr] {
		// Local delivery stays asynchronous, like a looped-back packet.
		t.d.Sim().After(0, func() {
			if t.handler != nil && t.subs[addr] {
				t.handler(from, addr, msg)
			}
		})
	}
}

// Unicast implements netsim.Transport. Must be called on the driver loop.
func (t *Transport) Unicast(from, to netsim.NodeID, addr netsim.Addr, msg netsim.Message) {
	if from != t.pid {
		return
	}
	if to == t.pid {
		t.d.Sim().After(0, func() {
			if t.handler != nil {
				t.handler(from, addr, msg)
			}
		})
		return
	}
	peer, ok := t.peersAP[to]
	if !ok {
		return
	}
	env := envelope{From: from, Addr: string(addr), Uni: true, Msg: msg}
	t.stampTC(&env)
	chunks, buf := t.encodeChunks(&env)
	if chunks == nil {
		return
	}
	t.sendChunks(to, peer, chunks)
	if buf != nil {
		buf.Release()
	}
	t.chunkScratch = chunks[:0]
}

// deliverEnv runs the receive-side protocol checks for one decoded
// envelope. Loop-confined: it reads subs and invokes the handler, so it
// must only run on the driver goroutine (the inbox).
func (t *Transport) deliverEnv(env *envelope) {
	addr := netsim.Addr(env.Addr)
	if !env.Uni && !t.subs[addr] {
		return // not subscribed: filtered like IP multicast
	}
	if env.tc != nil {
		t.ins.traceCtxRecv.Inc()
		t.inTC, t.inTCOK = *env.tc, true
		if t.tracer != nil {
			t.tracer.Trace(trace.Event{
				At:    t.d.Sim().Now(),
				Node:  t.pid,
				Layer: "net",
				What:  trace.WireRecv,
				Src:   ids.ProcessID(env.tc.Origin),
				Ref:   env.tc.Ref,
				Data:  env.Addr,
			})
		}
	}
	if t.handler != nil {
		t.handler(env.From, addr, env.Msg)
	}
	t.inTCOK = false
}

// apHash maps a peer to its send-ring shard (FNV-1a over the address
// and port).
func apHash(ap netip.AddrPort) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	a := ap.Addr().As16()
	for _, c := range a {
		h = (h ^ uint32(c)) * prime32
	}
	p := ap.Port()
	h = (h ^ uint32(p&0xff)) * prime32
	h = (h ^ uint32(p>>8)) * prime32
	return h
}

// readLoop is the whole receive path: it reads, reassembles and decodes
// each datagram and hands its envelopes to the loop in one submission.
func (t *Transport) readLoop() {
	defer t.readerWG.Done()
	buf := make([]byte, 256*1024)
	reasm := newReassembler()
	var envs []envelope
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
				// Transient error; keep reading until closed.
				continue
			}
		}
		t.ins.dgramsRecv.Inc()
		t.ins.bytesRecv.Add(int64(n))
		// Copy out of the reusable read buffer: reassembly and the decoded
		// messages (via aliasing readers) own the copy. The append-based
		// clone skips zeroing memory it is about to overwrite.
		envs = t.decodeInto(envs[:0], reasm, from, bytes.Clone(buf[:n]))
		t.d.doEnvBatch(t, envs)
	}
}

// decodeInto reassembles and decodes one datagram, appending the
// envelopes its frames complete to envs. A bundle's framing is checked
// whole before any frame is used: bad framing counts one malformed
// datagram and delivers nothing. Each frame of a good bundle is then
// handled exactly as a datagram of its own.
func (t *Transport) decodeInto(envs []envelope, reasm *reassembler, from netip.AddrPort, data []byte) []envelope {
	if !isBundle(data) {
		return t.decodeFrame(envs, reasm, from, data)
	}
	body := data[len(bundleMagic):]
	if !validBundle(body) {
		t.ins.dgramsMalformed.Inc()
		return envs
	}
	for len(body) > 0 {
		frame, rest, _ := nextFrame(body)
		envs = t.decodeFrame(envs, reasm, from, frame)
		body = rest
	}
	return envs
}

// decodeFrame reassembles and decodes one frame, appending the envelope
// (if the frame completed a message) to envs.
func (t *Transport) decodeFrame(envs []envelope, reasm *reassembler, from netip.AddrPort, frame []byte) []envelope {
	data, err := reasm.add(from, frame)
	if err != nil {
		t.ins.dgramsMalformed.Inc()
		return envs
	}
	if data == nil {
		return envs // more chunks to come
	}
	env, err := decodeEnvelope(data)
	if err != nil {
		t.ins.dgramsMalformed.Inc()
		return envs
	}
	return append(envs, env)
}

// PipelineStats is a point-in-time snapshot of the data plane, served
// by the /debug/rtnet endpoint. Queue lengths are sampled racily, which
// is fine for observability.
type PipelineStats struct {
	SendWriters int `json:"send_writers"`
	SendRingCap int `json:"send_ring_cap"`
	SendRingLen int `json:"send_ring_len"`
	// DecodeQueueLens holds the length of the one queue between the
	// socket and the protocol: the driver inbox, as a one-element slice.
	// Decoded envelopes wait there for the loop; the field keeps its
	// name for the readers that already scrape it.
	DecodeQueueLens []int `json:"decode_queue_lens"`
}

// PipelineStats snapshots the data-plane configuration and queue
// depths. Call after Start.
func (t *Transport) PipelineStats() PipelineStats {
	st := PipelineStats{
		SendWriters:     len(t.sendQs),
		DecodeQueueLens: []int{t.d.inboxLen()},
	}
	for _, q := range t.sendQs {
		st.SendRingCap += cap(q)
		st.SendRingLen += len(q)
	}
	return st
}

// encodeEnvelopeFramed serializes the envelope into a pooled buffer
// behind fragHeader bytes of zero-padding, so a message that fits one
// datagram can have its fragment header written in place and the pooled
// buffer handed to the writers directly — no per-chunk copy. The caller
// must Release the buffer.
func encodeEnvelopeFramed(env *envelope) (*wire.Buffer, error) {
	b := wire.GetBuffer()
	var pad [fragHeader]byte
	b.B = append(b.B, pad[:]...)
	if err := encodeEnvelopeInto(b, env); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// encodeEnvelopeInto fails only for a message that cannot be sent: one
// that has no codec, or that carries content without one.
func encodeEnvelopeInto(b *wire.Buffer, env *envelope) error {
	m, ok := env.Msg.(wire.Marshaler)
	if !ok {
		return fmt.Errorf("encode envelope: %T has no wire codec", env.Msg)
	}
	hdr := envVersion
	if env.Uni {
		hdr |= envFlagUni
	}
	if env.tc != nil {
		b.Byte(hdr | envFlagTC)
		env.tc.MarshalWire(b)
	} else {
		b.Byte(hdr)
	}
	b.PID(env.From)
	b.String(env.Addr)
	if !wire.Encode(b, m) {
		return fmt.Errorf("encode envelope: %T carries content without a wire codec", env.Msg)
	}
	return nil
}

func decodeEnvelope(data []byte) (envelope, error) {
	if len(data) == 0 {
		return envelope{}, fmt.Errorf("decode envelope: empty")
	}
	hdr := data[0]
	if hdr&^envFlagMask != envVersion {
		return envelope{}, fmt.Errorf("decode envelope: unknown header %#02x", hdr)
	}
	r := wire.NewReader(data[1:])
	env := envelope{Uni: hdr&envFlagUni != 0}
	if hdr&envFlagTC != 0 {
		env.tc = new(wire.TraceCtx)
		if !env.tc.UnmarshalWire(r) {
			return envelope{}, fmt.Errorf("decode envelope: bad trace context")
		}
	}
	env.From = r.PID()
	env.Addr = r.String()
	m, err := wire.Decode(r)
	if err != nil {
		return envelope{}, fmt.Errorf("decode envelope: %w", err)
	}
	msg, ok := m.(netsim.Message)
	if !ok {
		return envelope{}, fmt.Errorf("decode envelope: %T is not a message", m)
	}
	env.Msg = msg
	return env, nil
}
