package rtnet

import (
	"net"
	"net/netip"
	"testing"

	"plwg/internal/wire"
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

// BenchmarkWriterBurst prices one send-ring writer burst in the shape of
// an HWG's control traffic: 64 small frames per op, alternating between
// two peers. It reports ns/frame and frames/datagram; a writer that
// wrote every frame as its own datagram would report 1 frame/datagram.
func BenchmarkWriterBurst(b *testing.B) {
	const burst = 64
	tr, reg, peers := newWriterRig(b, burst, 2)
	buf := wire.GetBuffer()
	buf.B = append(buf.B, make([]byte, 120)...)
	writeFragHeader(buf.B, 1, 0, 1)
	to := []netip.AddrPort{addrPort(peers[0]), addrPort(peers[1])}
	reqs := make([]sendReq, 0, burst)
	var bundle []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs = reqs[:0]
		for k := 0; k < burst; k++ {
			buf.Retain()
			reqs = append(reqs, sendReq{data: buf.B, buf: buf, to: to[k%len(to)]})
		}
		bundle = tr.writeBurst(reqs, bundle)
	}
	b.StopTimer()
	frames := float64(b.N * burst)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(frames/float64(reg.Totals()["rtnet_datagrams_sent_total"]), "frames/datagram")
	buf.Release()
}
