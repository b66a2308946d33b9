package rtnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
	"plwg/internal/wire"
)

// TestSendRingOverflowBackpressure drives dispatch against full
// send-ring shards with no writers draining them: the overflowing
// datagrams must be dropped (never block) and counted, and the
// refcounted buffers they carried must be released.
func TestSendRingOverflowBackpressure(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := NewDriver(1)
	tr := NewTransport(d, 0, conn, nil)
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	// Hand-build the rings without writers, so nothing drains them.
	const ringCap = 2
	tr.sendQs = []chan sendReq{make(chan sendReq, ringCap)}
	to := conn.LocalAddr().(*net.UDPAddr).AddrPort()

	buf := wire.GetBuffer()
	buf.B = append(buf.B, make([]byte, 64)...)
	const sends = 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sends; i++ {
			buf.Retain()
			tr.dispatch(sendReq{data: buf.B, buf: buf, to: to})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch blocked on a full send ring")
	}

	if got := reg.Totals()["rtnet_send_ring_overflow_total"]; got != sends-ringCap {
		t.Fatalf("overflow counter = %d, want %d", got, sends-ringCap)
	}
	if got := len(tr.sendQs[0]); got != ringCap {
		t.Fatalf("ring holds %d requests, want %d", got, ringCap)
	}
	// Refcount audit: the encoder reference plus one per queued request
	// must remain; the overflowed references must already be gone.
	if got := buf.Refs(); got != 1+ringCap {
		t.Fatalf("%d references after overflow, want %d", got, 1+ringCap)
	}
	for i := 0; i < ringCap; i++ {
		req := <-tr.sendQs[0]
		req.buf.Release()
	}
	buf.Release() // the encoder's own reference
}

// TestPipelineCloseMidFlight closes clusters while senders have just
// stopped and datagrams — including multi-fragment messages — are still
// in flight through the reader's reassembler, the inbox, and the send
// rings. Run under -race this exercises the shutdown ordering: the
// reader exits, writers stop, rings drain.
func TestPipelineCloseMidFlight(t *testing.T) {
	for round := 0; round < 3; round++ {
		nodes, cols := startCluster(t, 3, []ids.ProcessID{0})
		for i := 0; i < 3; i++ {
			nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("mf") })
		}
		eventually(t, 15*time.Second, func() bool {
			v, ok := cols[0].lastView()
			return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
		}, "membership did not converge")

		stop := make(chan struct{})
		var wg sync.WaitGroup
		big := make([]byte, 3*fragPayload/2) // forces fragmentation
		for i, n := range nodes {
			i, n := i, n
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					payload := []byte(fmt.Sprintf("n%d-%d", i, k))
					if k%10 == 0 {
						payload = big
					}
					n.Do(func(ep *core.Endpoint) { _ = ep.Send("mf", payload) })
				}
			}()
		}
		time.Sleep(300 * time.Millisecond)
		close(stop)
		wg.Wait()
		// Close immediately: the rings, the socket buffers and the inbox
		// still hold in-flight datagrams from the burst that just stopped.
		for _, n := range nodes {
			n.Close()
		}
	}
}

// TestDataPlaneDeliversExactlyOnceFIFO checks the data plane's contract
// over real sockets, with three nodes sending at once: every multicast,
// including one per sender that fragments, reaches both peers exactly
// once in per-sender FIFO order, and Close returns.
func TestDataPlaneDeliversExactlyOnceFIFO(t *testing.T) {
	const (
		n       = 3
		perNode = 60
		bigAt   = perNode / 2
	)
	nodes, cols := startCluster(t, n, []ids.ProcessID{0})
	for _, node := range nodes {
		st := node.tr.PipelineStats()
		if st.SendWriters != sendWriters || len(st.DecodeQueueLens) != 1 {
			t.Fatalf("transport runs %d writers and reports %d receive queues, want %d and 1 (the driver inbox): %+v",
				st.SendWriters, len(st.DecodeQueueLens), sendWriters, st)
		}
		node.Do(func(ep *core.Endpoint) { _ = ep.Join("in") })
	}
	all := ids.NewMembers(0, 1, 2)
	eventually(t, 15*time.Second, func() bool {
		for _, c := range cols {
			if v, ok := c.lastView(); !ok || !v.Members.Equal(all) {
				return false
			}
		}
		return true
	}, "membership did not converge")

	// Message k of node i is "i.k|" plus padding; one per sender is padded
	// past the fragmentation threshold.
	pad := strings.Repeat("x", fragPayload+fragPayload/4)
	var wg sync.WaitGroup
	for i, node := range nodes {
		i, node := i, node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				msg := fmt.Sprintf("%d.%d|", i, k)
				if k == bigAt {
					msg += pad
				}
				node.Do(func(ep *core.Endpoint) {
					if err := ep.Send("in", []byte(msg)); err != nil {
						t.Errorf("node %d send %d: %v", i, k, err)
					}
				})
			}
		}()
	}
	wg.Wait()
	eventually(t, 30*time.Second, func() bool {
		for _, c := range cols {
			if len(c.dataCopy()) < n*perNode {
				return false
			}
		}
		return true
	}, "data plane did not deliver every multicast")
	time.Sleep(200 * time.Millisecond) // a duplicate would arrive about now

	for r, c := range cols {
		next := make(map[string]int) // sender -> next expected k
		for _, d := range c.dataCopy() {
			head, body, _ := strings.Cut(d, "|")
			src, tag, _ := strings.Cut(head, ":") // "p1:1.17"
			want := fmt.Sprintf("%s.%d", strings.TrimPrefix(src, "p"), next[src])
			if tag != want {
				t.Fatalf("receiver %d: got %q from %s, want %q (lost, duplicated or reordered)", r, tag, src, want)
			}
			wantBody := ""
			if next[src] == bigAt {
				wantBody = pad
			}
			if body != wantBody {
				t.Fatalf("receiver %d: message %q arrived with %d body bytes, want %d",
					r, tag, len(body), len(wantBody))
			}
			next[src]++
		}
		for i := 0; i < n; i++ {
			if got := next[fmt.Sprintf("p%d", i)]; got != perNode {
				t.Fatalf("receiver %d delivered %d messages from p%d, want %d", r, got, i, perNode)
			}
		}
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for _, node := range nodes {
			node.Close()
		}
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

func listenLoopback(t testing.TB) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func addrPort(c *net.UDPConn) netip.AddrPort {
	return c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// newWriterRig builds process 0's transport with one send ring and no
// writer yet, so a test can queue a burst before any of it leaves, and
// npeers loopback sockets addressed as processes 1..npeers.
func newWriterRig(t testing.TB, ringCap, npeers int) (*Transport, *metrics.Registry, []*net.UDPConn) {
	t.Helper()
	tr := NewTransport(NewDriver(1), 0, listenLoopback(t), nil)
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	tr.sendQs = []chan sendReq{make(chan sendReq, ringCap)}
	var peers []*net.UDPConn
	book := make(map[ids.ProcessID]*net.UDPAddr, npeers)
	for i := 0; i < npeers; i++ {
		pc := listenLoopback(t)
		peers = append(peers, pc)
		book[ids.ProcessID(i+1)] = pc.LocalAddr().(*net.UDPAddr)
	}
	tr.setPeers(book)
	t.Cleanup(tr.Close)
	return tr, reg, peers
}

// startWriter starts the rig's writer on its ring.
func (t *Transport) startWriter() {
	t.writerWG.Add(1)
	go t.writeLoop(t.sendQs[0])
}

// splitFrames is the test's own reading of the datagram layer: a
// fragment is one frame; a bundle is 0xB6 0x1E, then (uvarint length,
// frame) pairs. Bad framing yields nil.
func splitFrames(d []byte) [][]byte {
	if len(d) < 2 || d[0] != 0xB6 || d[1] != 0x1E {
		return [][]byte{d}
	}
	var out [][]byte
	for rest := d[2:]; len(rest) > 0; {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			return nil
		}
		out = append(out, rest[k:k+int(n)])
		rest = rest[k+int(n):]
	}
	return out
}

// receiveDatagrams reads each peer socket until want frames have arrived
// there or 5 s pass. Start it before the writer; the returned function
// waits and yields each peer's datagrams.
func receiveDatagrams(peers []*net.UDPConn, want int) func() [][][]byte {
	out := make([][][]byte, len(peers))
	var wg sync.WaitGroup
	for i, pc := range peers {
		i, pc := i, pc
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2*maxDatagram)
			_ = pc.SetReadDeadline(time.Now().Add(5 * time.Second))
			for frames := 0; frames < want; {
				n, err := pc.Read(buf)
				if err != nil {
					return
				}
				d := bytes.Clone(buf[:n])
				out[i] = append(out[i], d)
				frames += len(splitFrames(d))
			}
		}()
	}
	return func() [][][]byte { wg.Wait(); return out }
}

// TestWriterBundlesPerPeer queues frames for two peers, interleaved and
// of mixed sizes up to a full chunk, before the writer starts, so one
// burst takes them all. Each peer must receive its frames unaltered and
// in queue order across several bundles, no datagram may exceed
// maxDatagram, the full chunk must leave alone and unchanged, the
// counters must match what arrived, and every buffer reference the ring
// held must be released.
func TestWriterBundlesPerPeer(t *testing.T) {
	const perPeer = 90
	tr, reg, peers := newWriterRig(t, 2*perPeer, 2)
	sizes := []int{20, 200, 2000}
	full := perPeer / 2
	var sent [2][][]byte
	var bufs []*wire.Buffer
	for k := 0; k < perPeer; k++ {
		for p, pc := range peers {
			size := sizes[k%len(sizes)]
			if k == full {
				size = maxDatagram
			}
			b := wire.GetBuffer()
			b.B = append(b.B, bytes.Repeat([]byte{byte(p)}, size)...)
			writeFragHeader(b.B, uint64(k), 0, 1)
			b.Retain() // the audit's own reference
			bufs = append(bufs, b)
			sent[p] = append(sent[p], b.B)
			tr.dispatch(sendReq{data: b.B, buf: b, to: addrPort(pc)})
		}
	}
	wait := receiveDatagrams(peers, perPeer)
	tr.startWriter()
	got := wait()
	tr.Close() // the writer has returned: every release it makes is done

	datagrams, bundled := 0, 0
	for p, dgs := range got {
		var frames [][]byte
		bundles, fullAlone := 0, false
		for _, d := range dgs {
			if len(d) > maxDatagram {
				t.Errorf("peer %d: %d-byte datagram, above the %d-byte limit", p, len(d), maxDatagram)
			}
			fs := splitFrames(d)
			if len(fs) > 1 {
				bundles++
				bundled += len(fs)
			}
			fullAlone = fullAlone || bytes.Equal(d, sent[p][full])
			frames = append(frames, fs...)
		}
		datagrams += len(dgs)
		if len(frames) != perPeer {
			t.Fatalf("peer %d received %d frames in %d datagrams, want %d", p, len(frames), len(dgs), perPeer)
		}
		for k, f := range frames {
			if !bytes.Equal(f, sent[p][k]) {
				t.Fatalf("peer %d: frame %d is not the %d-th frame queued (reordered or altered)", p, k, k)
			}
		}
		if bundles < 2 || !fullAlone {
			t.Errorf("peer %d: %d bundles, full chunk alone %v; want ≥ 2 bundles and the chunk alone", p, bundles, fullAlone)
		}
	}
	totals := reg.Totals()
	if totals["rtnet_datagrams_sent_total"] != int64(datagrams) || totals["rtnet_bundled_frames_total"] != int64(bundled) {
		t.Errorf("counted %d datagrams, %d bundled frames; received %d, %d",
			totals["rtnet_datagrams_sent_total"], totals["rtnet_bundled_frames_total"], datagrams, bundled)
	}
	for i, b := range bufs {
		if r := b.Refs(); r != 1 {
			t.Fatalf("buffer %d holds %d references after the write, want the audit's 1", i, r)
		}
		b.Release()
	}
}

// TestWriterLoneFrameUnchanged: a frame with nothing queued beside it
// leaves as exactly the datagram encodeChunks built, which is what the
// transport wrote for every frame before it bundled any.
func TestWriterLoneFrameUnchanged(t *testing.T) {
	registerFragTestMsg()
	tr, reg, peers := newWriterRig(t, 4, 1)
	env := envelope{From: 0, Addr: "hwg/1", Msg: &fragTestMsg{Data: []byte("alone")}}
	chunks, buf := tr.encodeChunks(&env)
	want := bytes.Clone(chunks[0].data)
	tr.sendChunks(1, addrPort(peers[0]), chunks)
	buf.Release()
	wait := receiveDatagrams(peers, 1)
	tr.startWriter()
	if dgs := wait()[0]; len(dgs) != 1 || !bytes.Equal(dgs[0], want) {
		t.Fatalf("received %x, want the one datagram %x", dgs, want)
	}
	if n := reg.Totals()["rtnet_bundled_frames_total"]; n != 0 {
		t.Fatalf("%d frames counted as bundled, want 0", n)
	}
}

// TestDupTwinsBundledBothDeliver: under dup=1 the fault plan queues every
// frame twice. When the twins leave in one bundle, the receiver must
// decode and deliver both, as it does when each is a datagram of its own.
func TestDupTwinsBundledBothDeliver(t *testing.T) {
	registerFragTestMsg()
	tx, txReg, peers := newWriterRig(t, 4, 1)
	fs, err := faults.Parse("dup=1")
	if err != nil {
		t.Fatal(err)
	}
	tx.SetFaults(fs)

	d := NewDriver(1)
	rx := NewTransport(d, 1, peers[0], map[ids.ProcessID]*net.UDPAddr{0: tx.LocalAddr()})
	rxReg := metrics.NewRegistry()
	rx.Instrument(rxReg)
	got := make(chan string, 4)
	rx.SetHandler(func(_ netsim.NodeID, _ netsim.Addr, m netsim.Message) {
		got <- string(m.(*fragTestMsg).Data)
	})
	d.Start()
	rx.Start()
	defer d.Close()
	defer rx.Close()

	tx.Unicast(0, 1, "ns/0", &fragTestMsg{Data: []byte("twin")})
	tx.startWriter()
	for i := 0; i < 2; i++ {
		select {
		case s := <-got:
			if s != "twin" {
				t.Fatalf("delivered %q, want \"twin\"", s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of the 2 twins delivered", i)
		}
	}
	if n := txReg.Totals()["rtnet_bundled_frames_total"]; n != 2 {
		t.Fatalf("%d frames bundled, want both twins in one datagram", n)
	}
	if n := rxReg.Totals()["rtnet_datagrams_recv_total"]; n != 1 {
		t.Fatalf("receiver read %d datagrams, want 1", n)
	}
}

// TestSendRefsReleasedOnClose closes a started transport while its
// writers are mid-burst: every buffer reference taken from the rings
// must still be released, whether its frame was written, failed on the
// closed socket, overflowed, or was left queued for Close to drain. The
// -race run checks the hand-offs.
func TestSendRefsReleasedOnClose(t *testing.T) {
	var to []netip.AddrPort
	for i := 0; i < 3; i++ {
		to = append(to, addrPort(listenLoopback(t)))
	}
	for round := 0; round < 20; round++ {
		tr := NewTransport(NewDriver(1), 0, listenLoopback(t), nil)
		tr.Start()
		b := wire.GetBuffer()
		b.B = append(b.B, make([]byte, 300)...)
		writeFragHeader(b.B, 1, 0, 1)
		for i := 0; i < 600; i++ {
			b.Retain()
			tr.dispatch(sendReq{data: b.B, buf: b, to: to[i%len(to)]})
		}
		time.Sleep(time.Duration(round) * 20 * time.Microsecond)
		tr.Close()
		if r := b.Refs(); r != 1 {
			t.Fatalf("round %d: %d references outlive Close", round, r-1)
		}
		b.Release()
	}
}

// TestNoGoroutineOutlivesClose pins the shutdown order — the reader
// exits, the writers exit, the rings drain — by counting goroutines: once
// every node of a cluster that carried fragmenting traffic is closed, the
// process is back to the goroutines it had before the first Listen.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	before := runtime.NumGoroutine()
	nodes, cols := startCluster(t, 3, []ids.ProcessID{0})
	for _, n := range nodes {
		n.Do(func(ep *core.Endpoint) { _ = ep.Join("gc") })
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
	}, "membership did not converge")
	big := make([]byte, 3*fragPayload/2) // forces fragmentation
	for _, n := range nodes {
		n.Do(func(ep *core.Endpoint) {
			_ = ep.Send("gc", big)
			_ = ep.Send("gc", []byte("small"))
		})
	}
	eventually(t, 15*time.Second, func() bool {
		for _, c := range cols {
			if len(c.dataCopy()) < 2*len(nodes) {
				return false
			}
		}
		return true
	}, "traffic was not delivered")
	for _, n := range nodes {
		n.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after Close, %d before Listen:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
