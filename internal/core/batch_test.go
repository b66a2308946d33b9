package core

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/ids"
)

// batchCfg keeps a send parked in the batch indefinitely so a test can
// provoke a view change while the batch is non-empty: the only flushes
// are the ones the protocol itself forces.
func batchCfg() Config {
	c := testCfg()
	c.MaxBatchDelay = 5 * time.Second
	c.MaxBatchBytes = 1 << 20
	return c
}

// TestBatchPendingAcrossLeaveReconfig parks a send in the batch, then
// shrinks the LWG view. The reconfiguration's lwgStop must flush the
// batch first, so the leaver still delivers the message — exactly once
// — before its view is uninstalled.
func TestBatchPendingAcrossLeaveReconfig(t *testing.T) {
	w := newCWorld(t, 3, []ids.ProcessID{0}, batchCfg())
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	if err := w.eps[1].Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[2].Leave("a"); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireLWG("a", 1)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); len(got) != 1 || got[0] != "x" {
			t.Errorf("%v delivered %v, want exactly [x]\ntrace:\n%s",
				p, got, w.tracer.Dump())
		}
	}
}

// TestBatchPendingAcrossJoinReconfig parks a send in the batch, then has
// a third process join. The join forces a heavy-weight group flush (the
// vsync stop), during which the batch cannot be multicast — it must be
// requeued, re-stamped after the next view installs, and delivered to
// the old members exactly once, with no duplicates anywhere.
func TestBatchPendingAcrossJoinReconfig(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, batchCfg())
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	if err := w.eps[1].Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[3].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(6 * time.Second)
	w.requireLWG("a", 1, 2, 3)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); len(got) != 1 || got[0] != "x" {
			t.Errorf("%v delivered %v, want exactly [x]\ntrace:\n%s",
				p, got, w.tracer.Dump())
		}
	}
	// The joiner may legally see the message once (if the requeued send
	// completes in the admitted view) or not at all (if it went out
	// tagged with the pre-join view) — but never twice.
	if got := w.ups[3].dataOf("a"); len(got) > 1 || (len(got) == 1 && got[0] != "x") {
		t.Errorf("joiner delivered %v, want at most one [x]", got)
	}
}

// TestBatchFIFOAcrossBatches drives enough traffic through a small
// MaxBatchBytes that one sender's burst spans several size-flushed
// batches (plus a delay-flushed tail) and checks per-sender FIFO order
// is preserved within and across the batch boundaries.
func TestBatchFIFOAcrossBatches(t *testing.T) {
	cfg := testCfg()
	cfg.MaxBatchBytes = 100 // ~3 messages per batch
	w := newCWorld(t, 3, []ids.ProcessID{0}, cfg)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	const n = 20
	var want []string
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("m%02d", i)
		want = append(want, msg)
		if err := w.eps[1].Send("a", []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	w.run(2 * time.Second)
	for _, p := range []ids.ProcessID{1, 2} {
		got := w.ups[p].dataOf("a")
		if len(got) != n {
			t.Fatalf("%v delivered %d messages, want %d: %v", p, len(got), n, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v FIFO violated at %d: got %q, want %q\nfull: %v",
					p, i, got[i], want[i], got)
			}
		}
	}
}

// TestBatchTotalOrderAcrossBatches runs two concurrent senders with
// batching active: every member must deliver the identical interleaving
// (the simulated bus's single frame order, which the LWG flush relies
// on), and each sender's messages stay in send order.
func TestBatchTotalOrderAcrossBatches(t *testing.T) {
	cfg := testCfg()
	cfg.MaxBatchBytes = 100
	w := newCWorld(t, 4, []ids.ProcessID{0}, cfg)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2, 3)

	const perSender = 10
	for i := 0; i < perSender; i++ {
		if err := w.eps[1].Send("a", []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.eps[2].Send("a", []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)

	ref := w.ups[1].dataOf("a")
	if len(ref) != 2*perSender {
		t.Fatalf("p1 delivered %d messages, want %d: %v", len(ref), 2*perSender, ref)
	}
	for _, p := range []ids.ProcessID{2, 3} {
		got := w.ups[p].dataOf("a")
		if len(got) != len(ref) {
			t.Fatalf("%v delivered %d messages, p1 delivered %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order violated at %d: %v saw %q, p1 saw %q",
					i, p, got[i], ref[i])
			}
		}
	}
	// Per-sender FIFO inside the total order.
	for _, prefix := range []byte{'a', 'b'} {
		next := 0
		for _, d := range ref {
			if d[0] != prefix {
				continue
			}
			if want := fmt.Sprintf("%c%d", prefix, next); d != want {
				t.Fatalf("sender %c FIFO violated: got %q, want %q (seq %v)",
					prefix, d, want, ref)
			}
			next++
		}
		if next != perSender {
			t.Fatalf("sender %c: %d of %d messages delivered", prefix, next, perSender)
		}
	}
}
