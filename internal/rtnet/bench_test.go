package rtnet

import (
	"net"
	"testing"
)

// BenchmarkReassemblerAddrKey models the per-datagram receive work the
// read path performs before decoding: derive the reassembly key from
// the remote address and run the datagram through the reassembler.
// Before the pipeline PR the key was raddr.String() — one string
// allocation per datagram — and the single-chunk case copied the
// payload; the value-struct key (netip.AddrPort) plus the single-chunk
// aliasing fast path take this to zero allocations.
func BenchmarkReassemblerAddrKey(b *testing.B) {
	payload := make([]byte, 1024)
	chunks := fragment(1, payload)
	if len(chunks) != 1 {
		b.Fatal("expected a single chunk")
	}
	raddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 54321}
	ap := raddr.AddrPort()
	re := newReassembler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := re.add(ap, chunks[0])
		if err != nil || out == nil {
			b.Fatal("reassembly failed")
		}
	}
}

// BenchmarkWriterHandOff prices one loop turn's send path in the shape
// of an HWG's control traffic: 64 small frames per op, alternating
// between two peers, queued, handed off and written as one batch. It
// reports ns/frame and frames/datagram; a writer that wrote every frame
// as its own datagram would report 1 frame/datagram.
func BenchmarkWriterHandOff(b *testing.B) {
	const burst = 64
	tr, reg, _ := newWriterRig(b, 2)
	frame := make([]byte, 120)
	writeFragHeader(frame, 1, 0, 1)
	batch := sendBatch{frames: make([][][]byte, 2)}
	var bundle []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < burst; k++ {
			tr.dispatch(k%2, frame)
		}
		tr.endTurn()
		batch = tr.takeOutbox(batch)
		bundle = tr.writeBatch(&batch, bundle)
	}
	b.StopTimer()
	frames := float64(b.N * burst)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(frames/float64(reg.Totals()["rtnet_datagrams_sent_total"]), "frames/datagram")
}
