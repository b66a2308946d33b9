package rtnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
)

// TestPipelineCloseMidFlight closes clusters while senders have just
// stopped and datagrams — including multi-fragment messages — are still
// in flight through the reader's reassembler, the inbox, and the
// outbox. Run under -race this exercises the shutdown ordering and the
// outbox mutex: the reader exits, then the writer.
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
		// Close immediately: the outbox, the socket buffers and the inbox
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
		if st := node.tr.PipelineStats(); len(st.DecodeQueueLens) != 1 {
			t.Fatalf("transport reports %d receive queues, want 1 (the driver inbox): %+v", len(st.DecodeQueueLens), st)
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

// newWriterRig builds process 0's transport with no goroutine running,
// so a test can queue and hand off frames before any of them leaves, and
// npeers loopback sockets addressed as processes 1..npeers (peer indexes
// 0..npeers-1).
func newWriterRig(t testing.TB, npeers int) (*Transport, *metrics.Registry, []*net.UDPConn) {
	t.Helper()
	tr := NewTransport(NewDriver(1), 0, listenLoopback(t), nil)
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	var peers []*net.UDPConn
	book := make(map[ids.ProcessID]*net.UDPAddr, npeers)
	for i := 0; i < npeers; i++ {
		pc := listenLoopback(t)
		peers = append(peers, pc)
		book[ids.ProcessID(i+1)] = pc.LocalAddr().(*net.UDPAddr)
	}
	tr.setPeers(book)
	t.Cleanup(func() {
		tr.d.Close()
		tr.Close()
	})
	return tr, reg, peers
}

// endTurn runs what the rig's loop turn armed — the hand-off, and
// nothing else the rig schedules — as the driver would at the end of a
// turn.
func (t *Transport) endTurn() { t.d.Sim().Run() }

// startWriter starts the rig's writer.
func (t *Transport) startWriter() {
	t.writerWG.Add(1)
	go t.writeLoop()
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
	return receiveFor(peers, want, 5*time.Second)
}

// receiveFor is receiveDatagrams with the read deadline d.
func receiveFor(peers []*net.UDPConn, want int, d time.Duration) func() [][][]byte {
	out := make([][][]byte, len(peers))
	var wg sync.WaitGroup
	for i, pc := range peers {
		i, pc := i, pc
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2*maxDatagram)
			_ = pc.SetReadDeadline(time.Now().Add(d))
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

// TestWriterBundlesPerPeer queues frames for two peers in one turn,
// interleaved and of mixed sizes up to a full chunk, and hands them off
// before the writer starts, so one batch takes them all. Each peer must
// receive its frames unaltered and in queue order across several
// bundles, no datagram may exceed maxDatagram, the full chunk must leave
// alone and unchanged, and the counters must match what arrived.
func TestWriterBundlesPerPeer(t *testing.T) {
	const perPeer = 90
	tr, reg, peers := newWriterRig(t, 2)
	sizes := []int{20, 200, 2000}
	full := perPeer / 2
	var sent [2][][]byte
	for k := 0; k < perPeer; k++ {
		for p := range peers {
			size := sizes[k%len(sizes)]
			if k == full {
				size = maxDatagram
			}
			f := bytes.Repeat([]byte{byte(p)}, size)
			writeFragHeader(f, uint64(k), 0, 1)
			sent[p] = append(sent[p], f)
			tr.dispatch(p, f)
		}
	}
	tr.endTurn()
	wait := receiveDatagrams(peers, perPeer)
	tr.startWriter()
	got := wait()

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
}

// TestWriterLoneFrameUnchanged: a frame with nothing queued beside it
// leaves as exactly the datagram encodeChunks built, which is what the
// transport wrote for every frame before it bundled any.
func TestWriterLoneFrameUnchanged(t *testing.T) {
	registerFragTestMsg()
	tr, reg, peers := newWriterRig(t, 1)
	env := envelope{From: 0, Addr: "hwg/1", Msg: &fragTestMsg{Data: []byte("alone")}}
	chunks, buf := tr.encodeChunks(&env)
	want := bytes.Clone(chunks[0])
	tr.sendChunks(0, chunks)
	tr.hold(buf)
	tr.endTurn()
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
// frame twice in the same turn, so the twins leave in one bundle. The
// receiver must decode and deliver both, as it does when each is a
// datagram of its own.
func TestDupTwinsBundledBothDeliver(t *testing.T) {
	registerFragTestMsg()
	tx, txReg, peers := newWriterRig(t, 1)
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
	tx.endTurn()
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

// payloads decodes each frame of a peer's datagrams as a one-fragment
// fragTestMsg envelope and returns the payloads in arrival order.
func payloads(t *testing.T, dgs [][]byte) []string {
	t.Helper()
	var out []string
	for _, d := range dgs {
		for _, f := range splitFrames(d) {
			env, err := decodeEnvelope(f[fragHeader:])
			if err != nil {
				t.Fatalf("frame %x: %v", f, err)
			}
			out = append(out, string(env.Msg.(*fragTestMsg).Data))
		}
	}
	return out
}

// TestOneTurnOneDatagramPerPeer: twenty small multicasts made in one
// Driver.Call are one loop turn, so they cross to the writer in one
// hand-off and each peer reads exactly one bundle of all twenty frames,
// in the order they were sent — however the writer is scheduled.
func TestOneTurnOneDatagramPerPeer(t *testing.T) {
	registerFragTestMsg()
	const msgs = 20
	tr, reg, peers := newWriterRig(t, 2)
	tr.Start()
	tr.d.Start()
	var want []string
	for k := 0; k < msgs; k++ {
		want = append(want, fmt.Sprintf("m%02d", k))
	}
	tr.d.Call(func() {
		for _, m := range want {
			tr.Multicast(0, "hwg/1", &fragTestMsg{Data: []byte(m)})
		}
	})
	// Read until a second datagram would have had ample time to arrive.
	got := receiveFor(peers, msgs+1, 300*time.Millisecond)()
	for p, dgs := range got {
		if len(dgs) != 1 || len(splitFrames(dgs[0])) != msgs {
			t.Fatalf("peer %d read %d datagrams (first with %d frames), want one bundle of %d",
				p, len(dgs), len(splitFrames(dgs[0])), msgs)
		}
		if ps := payloads(t, dgs); !slices.Equal(ps, want) {
			t.Fatalf("peer %d payloads %q, want %q", p, ps, want)
		}
	}
	if n := reg.Totals()["rtnet_datagrams_sent_total"]; n != 2 {
		t.Fatalf("%d datagrams sent, want 2", n)
	}
}

// TestDelayedFrameOutlivesItsBuffer: a frame the fault plan delays leaves
// in a later turn, after the pooled buffer it was encoded into has gone
// back to the pool and been reused by later sends of the same size. It
// must still arrive byte for byte as it was encoded.
func TestDelayedFrameOutlivesItsBuffer(t *testing.T) {
	registerFragTestMsg()
	const later = 50
	tr, _, peers := newWriterRig(t, 1)
	fs, err := faults.Parse("delay=100ms")
	if err != nil {
		t.Fatal(err)
	}
	tr.SetFaults(fs)
	tr.Start()
	tr.d.Start()

	msg := func(c byte) *fragTestMsg { return &fragTestMsg{Data: bytes.Repeat([]byte{c}, 200)} }
	env := envelope{From: 0, Addr: "ns/0", Uni: true, Msg: msg('d')}
	wb, err := encodeEnvelopeFramed(&env)
	if err != nil {
		t.Fatal(err)
	}
	writeFragHeader(wb.B, 1, 0, 1) // the transport's first message
	delayed := bytes.Clone(wb.B)
	wb.Release()

	wait := receiveDatagrams(peers, later+1)
	tr.d.Call(func() { tr.Unicast(0, 1, "ns/0", msg('d')) })
	tr.SetFaults(nil)
	for k := 0; k < later; k++ {
		tr.d.Call(func() { tr.Unicast(0, 1, "ns/0", msg('x')) })
	}
	var frames [][]byte
	for _, d := range wait()[0] {
		frames = append(frames, splitFrames(d)...)
	}
	if len(frames) != later+1 {
		t.Fatalf("peer read %d frames, want %d", len(frames), later+1)
	}
	same := 0
	for _, f := range frames {
		if bytes.Equal(f, delayed) {
			same++
		}
	}
	if same != 1 {
		t.Fatalf("%d of %d frames are the delayed one as encoded, want 1", same, len(frames))
	}
}

// TestNoGoroutineOutlivesClose pins the shutdown order — the reader
// exits, then the writer — by counting goroutines: once
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
