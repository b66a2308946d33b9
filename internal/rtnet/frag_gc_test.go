package rtnet

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for reassembler tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// partial feeds the first chunk of a multi-chunk message, leaving a
// dangling reassembly buffer.
func partial(t *testing.T, r *reassembler, from netip.AddrPort, msgID uint64) {
	t.Helper()
	data := make([]byte, fragPayload+100) // two chunks
	chunks := fragment(msgID, data)
	if len(chunks) < 2 {
		t.Fatalf("want a multi-chunk message, got %d chunks", len(chunks))
	}
	out, err := r.add(from, chunks[0])
	if err != nil || out != nil {
		t.Fatalf("partial add: out=%v err=%v", out, err)
	}
}

// TestFragGCReclaimsStalePartialsBelowThreshold is the regression test
// for the gc() early return: with fewer than 64 buffers outstanding the
// old code never swept, so a stale partial (its peer crashed, or the
// missing chunk was lost for good) leaked forever.
func TestFragGCReclaimsStalePartialsBelowThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newReassemblerClock(clk.now)

	partial(t, r, netip.MustParseAddrPort("10.0.0.1:1"), 1)
	partial(t, r, netip.MustParseAddrPort("10.0.0.2:1"), 2)
	if len(r.bufs) != 2 {
		t.Fatalf("want 2 partial buffers, have %d", len(r.bufs))
	}

	// Well past the reassembly timeout, a fresh partial arrives and
	// triggers the periodic sweep. The two stale buffers must go.
	clk.advance(fragTimeout + time.Second)
	partial(t, r, netip.MustParseAddrPort("10.0.0.3:1"), 3)
	if len(r.bufs) != 1 {
		t.Fatalf("stale partials not reclaimed: %d buffers outstanding", len(r.bufs))
	}
	if _, ok := r.bufs[fragKey{from: netip.MustParseAddrPort("10.0.0.3:1"), msgID: 3}]; !ok {
		t.Fatal("the fresh partial was swept instead of the stale ones")
	}
}

// TestFragGCKeepsFreshPartials: a sweep must not reap buffers still
// inside the reassembly window.
func TestFragGCKeepsFreshPartials(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newReassemblerClock(clk.now)

	partial(t, r, netip.MustParseAddrPort("10.0.0.1:1"), 1)
	clk.advance(fragTimeout / 2)
	partial(t, r, netip.MustParseAddrPort("10.0.0.2:1"), 2)
	clk.advance(fragTimeout/2 + time.Millisecond) // first is now stale, second not
	partial(t, r, netip.MustParseAddrPort("10.0.0.3:1"), 3)

	if _, ok := r.bufs[fragKey{from: netip.MustParseAddrPort("10.0.0.1:1"), msgID: 1}]; ok {
		t.Fatal("stale partial survived the sweep")
	}
	if _, ok := r.bufs[fragKey{from: netip.MustParseAddrPort("10.0.0.2:1"), msgID: 2}]; !ok {
		t.Fatal("fresh partial was reaped")
	}
}

// TestFragStormConflictingTotals: datagrams claiming different totals
// for the same (sender, msgID) must restart the buffer — and the
// message must still complete once a consistent set of chunks lands.
func TestFragStormConflictingTotals(t *testing.T) {
	r := newReassembler()
	from := netip.MustParseAddrPort("10.0.0.9:9")

	big := make([]byte, 2*fragPayload+50) // three chunks
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := make([]byte, fragPayload+50) // two chunks
	for i := range small {
		small[i] = byte(i * 13)
	}
	bigChunks := fragment(1, big)
	smallChunks := fragment(1, small) // same msgID, conflicting total

	// Start reassembling the 3-chunk flavour…
	if out, err := r.add(from, bigChunks[0]); err != nil || out != nil {
		t.Fatalf("first chunk: out=%v err=%v", out, err)
	}
	if out, err := r.add(from, bigChunks[1]); err != nil || out != nil {
		t.Fatalf("second chunk: out=%v err=%v", out, err)
	}
	// …then a conflicting total restarts the buffer mid-reassembly.
	if out, err := r.add(from, smallChunks[0]); err != nil || out != nil {
		t.Fatalf("conflicting chunk: out=%v err=%v", out, err)
	}
	b := r.bufs[fragKey{from: from, msgID: 1}]
	if b == nil || b.total != 2 || len(b.chunks) != 1 {
		t.Fatalf("buffer not restarted: %+v", b)
	}
	// A late chunk of the old flavour conflicts again and restarts again.
	if out, err := r.add(from, bigChunks[2]); err != nil || out != nil {
		t.Fatalf("late old chunk: out=%v err=%v", out, err)
	}
	// Finally a consistent pair completes.
	if out, err := r.add(from, smallChunks[0]); err != nil || out != nil {
		t.Fatalf("restart chunk: out=%v err=%v", out, err)
	}
	out, err := r.add(from, smallChunks[1])
	if err != nil {
		t.Fatalf("final chunk: %v", err)
	}
	if !bytes.Equal(out, small) {
		t.Fatalf("reassembled %d bytes, want the %d-byte message", len(out), len(small))
	}
	if len(r.bufs) != 0 {
		t.Fatalf("%d buffers left after completion", len(r.bufs))
	}
}
