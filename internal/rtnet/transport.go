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
//	       │ sendChunks → the turn's frames, per peer
//	       │ handOff (one per loop turn) → outbox
//	       ▼
//	writer goroutine: take the outbox, bundle per peer
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
//     The writer only moves already-decided bytes.
//   - Encoded single-datagram messages fan out to N peers as one pooled
//     wire.Buffer (the fragment header is written in place). The turn
//     that queued its frames hands the buffer off with them, and the
//     writer releases it once, after writing every frame of the batch.
//     A frame the fault plan delays past its turn is copied when it is
//     planned, so no pooled buffer outlives its batch.
//   - The loop queues each turn's frames per peer and, at the end of the
//     turn (a zero-delay event, which the driver runs after the inbox
//     batch it just drained), appends them to the outbox in one
//     hand-off. One writer takes the whole outbox at a time and packs
//     each peer's frames, in order, into datagrams of at most
//     maxDatagram bytes, so a peer's frames leave in FIFO order. A frame
//     that travels alone leaves byte for byte as it was queued, so
//     bundling changes the number of writes, never the frames or the
//     fault plan that chose them.
//   - Neither side has a queue that drops. The outbox is unbounded, like
//     the driver inbox: when the writer falls behind it blocks in the
//     kernel's send buffer while the outbox grows, and the loop never
//     blocks. The reader never blocks on the loop, and while it decodes,
//     arriving datagrams wait in the socket buffer, the component sized
//     to absorb bursts. UDP loss is part of the model; the vsync NACK
//     machinery repairs it.
//
// Shutdown ordering: Close closes t.closed and the socket; the reader
// unblocks and exits; the writer exits on t.closed. What the writer had
// not taken is dropped with the transport, and a hand-off after Close
// drops its frames.
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

// sendBatch is frames waiting for the writer, per peer (indexed like
// Transport.order), and the pooled buffers those frames point into, each
// listed once.
type sendBatch struct {
	frames [][][]byte
	bufs   []*wire.Buffer
	n      int // frames across all peers
}

// reset empties the batch, keeping its arrays and dropping the
// references they held.
func (b *sendBatch) reset() {
	for i := range b.frames {
		clear(b.frames[i])
		b.frames[i] = b.frames[i][:0]
	}
	clear(b.bufs)
	b.bufs = b.bufs[:0]
	b.n = 0
}

// Transport is a netsim.Transport over UDP. Multicast is emulated by
// unicast fan-out to every peer; receivers filter by their local
// subscriptions, which matches the semantics of the simulated network
// (and of IP multicast on a LAN segment).
type Transport struct {
	d     *Driver
	pid   ids.ProcessID
	conn  *net.UDPConn
	peers map[ids.ProcessID]*net.UDPAddr
	order []ids.ProcessID // deterministic fan-out order
	// addrs and peerIdx index the peers like order: addrs[i] is
	// order[i]'s address, and peerIdx maps a process to its i.
	addrs   []netip.AddrPort
	peerIdx map[ids.ProcessID]int

	// Loop-confined state.
	subs    map[netsim.Addr]bool
	handler netsim.Handler

	// nextMsgID numbers outgoing envelopes for fragmentation
	// (loop-confined).
	nextMsgID uint64
	// chunkScratch is the loop-confined scratch slice encodeChunks
	// reuses across messages, so steady-state sends allocate no chunk
	// headers.
	chunkScratch [][]byte

	// turn is what this loop turn has queued for the writer
	// (loop-confined). A non-empty turn has handOff armed.
	turn sendBatch
	// handOffFn is t.handOff, bound once so arming it allocates no
	// method value.
	handOffFn func()

	// outMu guards out, the frames hand-offs queued and the writer has
	// not taken yet. kick wakes the writer; its one slot means a poke
	// never blocks the loop and pokes made while the writer works
	// coalesce.
	outMu sync.Mutex
	out   sendBatch
	kick  chan struct{}

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
	dgramsSent      *metrics.Counter
	bytesSent       *metrics.Counter
	dgramsRecv      *metrics.Counter
	bytesRecv       *metrics.Counter
	faultDrops      *metrics.Counter
	dgramsMalformed *metrics.Counter
	sendErrors      *metrics.Counter
	bundledFrames   *metrics.Counter
	traceCtxSent    *metrics.Counter
	traceCtxRecv    *metrics.Counter
}

// Instrument resolves the transport's counters from the registry (nil
// disables them). Call before Start.
func (t *Transport) Instrument(r *metrics.Registry) {
	t.ins = transportMetrics{
		dgramsSent:      r.Counter("rtnet_datagrams_sent_total"),
		bytesSent:       r.Counter("rtnet_bytes_sent_total"),
		dgramsRecv:      r.Counter("rtnet_datagrams_recv_total"),
		bytesRecv:       r.Counter("rtnet_bytes_recv_total"),
		faultDrops:      r.Counter("rtnet_fault_drops_total"),
		dgramsMalformed: r.Counter("rtnet_datagrams_malformed_total"),
		sendErrors:      r.Counter("rtnet_send_errors_total"),
		bundledFrames:   r.Counter("rtnet_bundled_frames_total"),
		traceCtxSent:    r.Counter("rtnet_trace_ctx_sent_total"),
		traceCtxRecv:    r.Counter("rtnet_trace_ctx_recv_total"),
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
		case "data", "heartbeat", "nack":
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
		kick:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	t.handOffFn = t.handOff
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
	t.order = t.order[:0]
	for p := range peers {
		t.order = append(t.order, p)
	}
	t.order = []ids.ProcessID(ids.NewMembers(t.order...))
	t.addrs = make([]netip.AddrPort, len(t.order))
	t.peerIdx = make(map[ids.ProcessID]int, len(t.order))
	for i, p := range t.order {
		// Unmap 4-in-6 addresses (UDPAddr.AddrPort yields ::ffff:a.b.c.d
		// for IPv4): an AF_INET socket rejects the mapped form.
		ap := peers[p].AddrPort()
		t.addrs[i] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		t.peerIdx[p] = i
	}
	t.turn = sendBatch{frames: make([][][]byte, len(t.order))}
	t.out = sendBatch{frames: make([][][]byte, len(t.order))}
}

// SetHandler installs the node's message dispatcher (typically a
// netsim.Mux handler). Must be called before Start.
func (t *Transport) SetHandler(h netsim.Handler) { t.handler = h }

// Start launches the data plane: the writer and the UDP reader.
func (t *Transport) Start() {
	t.writerWG.Add(1)
	go t.writeLoop()
	t.readerWG.Add(1)
	go t.readLoop()
}

// Close shuts the data plane down: the reader exits, then the writer.
func (t *Transport) Close() {
	t.closeOnce.Do(func() { close(t.closed) })
	_ = t.conn.Close()
	t.readerWG.Wait()
	t.writerWG.Wait()
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

// dispatch queues one frame for the peer at index i of order; the first
// frame of a loop turn arms the turn's hand-off. Loop-confined.
func (t *Transport) dispatch(i int, frame []byte) {
	if t.turn.n == 0 {
		t.d.Sim().After(0, t.handOffFn)
	}
	t.turn.frames[i] = append(t.turn.frames[i], frame)
	t.turn.n++
}

// hold keeps a pooled buffer until the writer has written the frames
// this turn queued from it; with nothing queued it goes back to the pool
// at once. Loop-confined.
func (t *Transport) hold(b *wire.Buffer) {
	if b == nil {
		return
	}
	if t.turn.n == 0 {
		b.Release()
		return
	}
	t.turn.bufs = append(t.turn.bufs, b)
}

// handOff moves the turn's frames and buffers to the outbox and wakes
// the writer. It runs on the loop as the zero-delay event dispatch
// armed, so everything one turn sent crosses to the writer together.
func (t *Transport) handOff() {
	if t.turn.n == 0 {
		return
	}
	select {
	case <-t.closed:
		t.turn.reset()
		return
	default:
	}
	t.outMu.Lock()
	for i, fs := range t.turn.frames {
		t.out.frames[i] = append(t.out.frames[i], fs...)
	}
	t.out.bufs = append(t.out.bufs, t.turn.bufs...)
	t.out.n += t.turn.n
	t.outMu.Unlock()
	t.turn.reset()
	select {
	case t.kick <- struct{}{}:
	default:
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

// writeLoop is the writer. Each wake-up swaps the whole outbox for the
// batch it emptied last time and writes it.
func (t *Transport) writeLoop() {
	defer t.writerWG.Done()
	batch := sendBatch{frames: make([][][]byte, len(t.order))}
	var bundle []byte // bundle assembly scratch, reused across batches
	for {
		select {
		case <-t.closed:
			return
		case <-t.kick:
		}
		batch = t.takeOutbox(batch)
		bundle = t.writeBatch(&batch, bundle)
	}
}

// takeOutbox swaps the outbox for empty and returns what it held.
func (t *Transport) takeOutbox(empty sendBatch) sendBatch {
	t.outMu.Lock()
	defer t.outMu.Unlock()
	b := t.out
	t.out = empty
	return b
}

// writeBatch writes every peer's frames, releases the batch's buffers
// and empties it. bundle is scratch for assembling bundles; the grown
// scratch is returned for reuse.
func (t *Transport) writeBatch(b *sendBatch, bundle []byte) []byte {
	for i, fs := range b.frames {
		bundle = t.writePeer(fs, t.addrs[i], bundle)
	}
	for _, buf := range b.bufs {
		buf.Release()
	}
	b.reset()
	return bundle
}

// writePeer writes one peer's frames in order, packing consecutive
// frames into one bundle while it stays within maxDatagram; a frame that
// the next frame does not fit beside goes out alone, unchanged.
func (t *Transport) writePeer(frames [][]byte, to netip.AddrPort, bundle []byte) []byte {
	for len(frames) > 0 {
		size, n := len(bundleMagic)+bundledSize(frames[0]), 1
		for n < len(frames) && size+bundledSize(frames[n]) <= maxDatagram {
			size += bundledSize(frames[n])
			n++
		}
		if n == 1 {
			t.write(frames[0], to)
		} else {
			bundle = append(bundle[:0], bundleMagic[:]...)
			for _, f := range frames[:n] {
				bundle = binary.AppendUvarint(bundle, uint64(len(f)))
				bundle = append(bundle, f...)
			}
			t.write(bundle, to)
			t.ins.bundledFrames.Add(int64(n))
		}
		frames = frames[n:]
	}
	return bundle
}

// sendChunks pushes the datagrams of one message to the peer at index i
// of order through the fault table: drop, duplicate, or delay each chunk
// as the link's rule dictates. Must be called on the driver loop — the
// fault plan consumes the deterministic RNG, and keeping that on-loop is
// what makes a seed replay the identical fault schedule whatever the
// writer does with the bytes afterwards. A delayed chunk is copied here:
// it leaves in a later turn, after its pooled buffer went back.
func (t *Transport) sendChunks(i int, chunks [][]byte) {
	for _, c := range chunks {
		send, delays := t.faults.plan(t.order[i])
		if !send {
			t.ins.faultDrops.Inc()
			continue
		}
		if delays == nil {
			t.dispatch(i, c)
			continue
		}
		for _, d := range delays {
			if d <= 0 {
				t.dispatch(i, c)
				continue
			}
			c := bytes.Clone(c)
			t.d.Sim().After(d, func() { t.dispatch(i, c) })
		}
	}
}

// encodeChunks encodes env and splits it into datagram chunks, bumping
// the message counter. The common single-datagram case writes the
// fragment header in place in the pooled encode buffer, so the fan-out
// to N peers shares one buffer with zero copies; larger messages fall
// back to per-chunk GC-owned slices. The scratch slice is loop-confined
// and reused across messages; callers must hand it back via
// t.chunkScratch = chunks[:0] after dispatching, and must pass buf to
// hold.
func (t *Transport) encodeChunks(env *envelope) (chunks [][]byte, buf *wire.Buffer) {
	b, err := encodeEnvelopeFramed(env)
	if err != nil {
		t.sendFailed(env)
		return nil, nil
	}
	t.nextMsgID++
	if len(b.B) <= fragHeader+fragPayload {
		writeFragHeader(b.B, t.nextMsgID, 0, 1)
		return append(t.chunkScratch[:0], b.B), b
	}
	chunks = append(t.chunkScratch[:0], fragment(t.nextMsgID, b.B[fragHeader:])...)
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
	for i := range t.order {
		t.sendChunks(i, chunks)
	}
	t.hold(buf)
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
	i, ok := t.peerIdx[to]
	if !ok {
		return
	}
	env := envelope{From: from, Addr: string(addr), Uni: true, Msg: msg}
	t.stampTC(&env)
	chunks, buf := t.encodeChunks(&env)
	if chunks == nil {
		return
	}
	t.sendChunks(i, chunks)
	t.hold(buf)
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
// by the /debug/rtnet endpoint.
type PipelineStats struct {
	// SendRingLen is the number of frames in the outbox: handed off by
	// the loop, not yet taken by the writer. The field keeps its name
	// for the readers that already scrape it.
	SendRingLen int `json:"send_ring_len"`
	// DecodeQueueLens holds the length of the one queue between the
	// socket and the protocol: the driver inbox, as a one-element slice.
	// Decoded envelopes wait there for the loop; the field keeps its
	// name for the readers that already scrape it.
	DecodeQueueLens []int `json:"decode_queue_lens"`
}

// PipelineStats snapshots the data plane's queue depths.
func (t *Transport) PipelineStats() PipelineStats {
	t.outMu.Lock()
	n := t.out.n
	t.outMu.Unlock()
	return PipelineStats{SendRingLen: n, DecodeQueueLens: []int{t.d.inboxLen()}}
}

// encodeEnvelopeFramed serializes the envelope into a pooled buffer
// behind fragHeader bytes of zero-padding, so a message that fits one
// datagram can have its fragment header written in place and the pooled
// buffer handed to the writer directly — no per-chunk copy. The caller
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
