package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// batchCfg spaces timer-driven flushes 5 s apart, so once the HWG has
// flushed, a further send stays parked in the batch while a test
// provokes a view change: the only flushes are the ones the protocol
// itself forces.
func batchCfg() Config {
	c := testCfg()
	c.batchMaxDelay = 5 * time.Second
	c.batchMaxBytes = 1 << 20
	return c
}

// batchWorld is n nodes, the name server on p0 and a two-member LWG
// "a" on p1 and p2, set up and idle.
func batchWorld(t *testing.T, n int, cfg Config) *cWorld {
	t.Helper()
	w := newCWorld(t, n, []ids.ProcessID{0}, cfg)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)
	return w
}

// primeHWG has pid send "p" on lwg and lets it leave. The HWG is quiet,
// so "p" flushes at the end of the instant; the flush arms the rate
// limit, and the next send on the HWG parks for the batch delay.
func (w *cWorld) primeHWG(pid ids.ProcessID, lwg ids.LWGID) {
	w.t.Helper()
	if err := w.eps[pid].Send(lwg, []byte("p")); err != nil {
		w.t.Fatal(err)
	}
	w.run(10 * time.Millisecond)
	if got := w.ups[pid].dataOf(lwg); len(got) != 1 || got[0] != "p" {
		w.t.Fatalf("%v delivered %v after the priming send, want [p]", pid, got)
	}
}

// firstEvent returns the index of the first traced event from index
// from on that ok accepts, or -1.
func (w *cWorld) firstEvent(from int, ok func(trace.Event) bool) int {
	for i := from; i < len(w.tracer.Events); i++ {
		if ok(w.tracer.Events[i]) {
			return i
		}
	}
	return -1
}

// sendOf returns the index of the LWGSend event carrying data, or -1.
func (w *cWorld) sendOf(data string) int {
	return w.firstEvent(0, func(e trace.Event) bool {
		return e.What == trace.LWGSend && e.Data == data
	})
}

// TestBatchPendingAcrossLeaveReconfig parks a send in the batch, then
// shrinks the LWG view. The reconfiguration's lwgStop must flush the
// batch first, so the leaver still delivers the message — exactly once
// — before its view is uninstalled.
func TestBatchPendingAcrossLeaveReconfig(t *testing.T) {
	w := batchWorld(t, 3, batchCfg())
	w.primeHWG(1, "a")

	mark := len(w.tracer.Events)
	if err := w.eps[1].Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[2].Leave("a"); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireLWG("a", 1)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); len(got) != 2 || got[0] != "p" || got[1] != "x" {
			t.Errorf("%v delivered %v, want exactly [p x]\ntrace:\n%s",
				p, got, w.tracer.Dump())
		}
	}
	// The premise: "x" was still parked when the reconfiguration began,
	// and left only because the LWG flush forced it out.
	flush := w.firstEvent(mark, func(e trace.Event) bool {
		return e.What == "lwg-flush" && strings.HasPrefix(e.Text, "a: ")
	})
	if sent := w.sendOf("x"); flush < 0 || sent < flush {
		t.Fatalf("x sent at event %d, LWG flush at %d: x never waited for the reconfiguration\ntrace:\n%s",
			sent, flush, w.tracer.Dump())
	}
}

// TestBatchPendingAcrossJoinReconfig parks a send in the batch, then has
// a third process join. The join forces a heavy-weight group flush (the
// vsync stop), during which the batch cannot be multicast — it must be
// requeued, re-stamped after the next view installs, and delivered to
// the old members exactly once, with no duplicates anywhere.
func TestBatchPendingAcrossJoinReconfig(t *testing.T) {
	w := batchWorld(t, 4, batchCfg())
	w.primeHWG(1, "a")

	mark := len(w.tracer.Events)
	if err := w.eps[1].Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[3].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(6 * time.Second)
	w.requireLWG("a", 1, 2, 3)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); len(got) != 2 || got[0] != "p" || got[1] != "x" {
			t.Errorf("%v delivered %v, want exactly [p x]\ntrace:\n%s",
				p, got, w.tracer.Dump())
		}
	}
	// The joiner may legally see the message once (if the requeued send
	// completes in the admitted view) or not at all (if it went out
	// tagged with the pre-join view) — but never twice.
	if got := w.ups[3].dataOf("a"); len(got) > 1 || (len(got) == 1 && got[0] != "x") {
		t.Errorf("joiner delivered %v, want at most one [x]", got)
	}
	// The premise: "x" was still parked when the sender's HWG stopped.
	stop := w.firstEvent(mark, func(e trace.Event) bool {
		return e.Layer == "vsync" && e.What == "stopped" && e.Node == 1
	})
	if sent := w.sendOf("x"); stop < 0 || sent < stop {
		t.Fatalf("x sent at event %d, HWG stop at %d: x never waited for the reconfiguration\ntrace:\n%s",
			sent, stop, w.tracer.Dump())
	}
}

// TestBatchFIFOAcrossBatches drives enough traffic through a small
// batch size limit that one sender's burst spans several size-flushed
// batches (plus a timer-flushed tail) and checks per-sender FIFO order
// is preserved within and across the batch boundaries.
func TestBatchFIFOAcrossBatches(t *testing.T) {
	cfg := testCfg()
	cfg.batchMaxBytes = 100 // ~3 messages per batch
	w := batchWorld(t, 3, cfg)

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
	cfg.batchMaxBytes = 100
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

// dataFrames counts HWG multicasts on the bus so far (vsync data frames:
// LWG data batches and LWG control messages).
func (w *cWorld) dataFrames() int64 { return w.nw.Stats().ByKind["data"] }

// sendTimes returns the virtual instants of the LWGSend events carrying
// each of data.
func (w *cWorld) sendTimes(data ...string) []sim.Time {
	var at []sim.Time
	for _, d := range data {
		i := w.sendOf(d)
		if i < 0 {
			w.t.Fatalf("%q never sent\ntrace:\n%s", d, w.tracer.Dump())
		}
		at = append(at, w.tracer.Events[i].At)
	}
	return at
}

// TestBatchQuietSendNoDwell: a lone send on a HWG with no data traffic
// leaves at the instant it is made and is delivered after exactly the
// bus, propagation and receive-CPU cost of its one frame. A 5 s
// batch delay makes any dwell unmistakable.
func TestBatchQuietSendNoDwell(t *testing.T) {
	w := batchWorld(t, 3, batchCfg())
	before, t0 := w.nw.Stats(), w.s.Now()
	if err := w.eps[1].Send("a", []byte("solo")); err != nil {
		t.Fatal(err)
	}
	w.s.RunWhile(func() bool { return len(w.ups[2].dataOf("a")) == 0 })
	after := w.nw.Stats()
	if frames := after.Frames - before.Frames; frames != 1 {
		t.Fatalf("%d frames on the bus until delivery, want just the data frame", frames)
	}
	if at := w.sendTimes("solo")[0]; at != t0 {
		t.Fatalf("sent at %v, %v after the call", at, at.Sub(t0))
	}
	p := netsim.DefaultParams()
	frame := after.Bytes - before.Bytes
	tx := time.Duration(float64(frame*8) / p.BandwidthBps * float64(time.Second))
	cpu := p.CPUPerMsg + time.Duration(float64(frame-int64(p.FrameOverheadBytes))/1024*float64(p.CPUPerKB))
	log := w.ups[2].log["a"]
	if got, want := log[len(log)-1].at.Sub(t0), tx+p.PropDelay+cpu; got != want {
		t.Fatalf("delivered after %v, want %v (bus %v + propagation %v + receive %v)",
			got, want, tx, p.PropDelay, cpu)
	}
}

// TestBatchPacksSendsMadeTogether: the end-of-instant flush still packs
// sends made together — several in one handler, or from two handlers
// that run at one virtual instant — into one frame.
func TestBatchPacksSendsMadeTogether(t *testing.T) {
	w := batchWorld(t, 3, testCfg())
	const k = 5
	var want []string
	frames := w.dataFrames()
	for i := 0; i < k; i++ {
		want = append(want, fmt.Sprintf("h%d", i))
		if err := w.eps[1].Send("a", []byte(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	w.run(10 * time.Millisecond)
	if n := w.dataFrames() - frames; n != 1 {
		t.Fatalf("%d sends in one handler took %d frames, want 1", k, n)
	}

	// Two handlers at one instant, far enough on that the rate limit
	// has lapsed.
	at := w.s.Now().Add(10 * time.Millisecond)
	for _, d := range []string{"u", "v"} {
		d := d
		want = append(want, d)
		w.s.At(at, func() {
			if err := w.eps[1].Send("a", []byte(d)); err != nil {
				t.Error(err)
			}
		})
	}
	frames = w.dataFrames()
	w.run(20 * time.Millisecond)
	if n := w.dataFrames() - frames; n != 1 {
		t.Fatalf("sends from two handlers at one instant took %d frames, want 1", n)
	}
	for _, sent := range w.sendTimes("u", "v") {
		if sent != at {
			t.Fatalf("sent at %v, want %v (the handlers' instant)", sent, at)
		}
	}
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v delivered %v, want %v", p, got, want)
		}
	}
}

// TestBatchRateLimitUnderLoad: under a send every 100 µs, timer-driven
// flushes are spaced at least maxBatchDelay apart, the batch fills in
// between, and no payload waits longer than maxBatchDelay.
func TestBatchRateLimitUnderLoad(t *testing.T) {
	cfg := testCfg()
	cfg.batchMaxBytes = 1 << 20 // no size flushes
	w := batchWorld(t, 3, cfg)
	const n, gap = 200, 100 * time.Microsecond
	madeAt := make(map[string]sim.Time, n)
	start := w.s.Now()
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("m%03d", i)
		w.s.At(start.Add(time.Duration(i)*gap), func() {
			madeAt[d] = w.s.Now()
			if err := w.eps[1].Send("a", []byte(d)); err != nil {
				t.Error(err)
			}
		})
	}
	w.run(100 * time.Millisecond)
	if got := len(w.ups[2].dataOf("a")); got != n {
		t.Fatalf("p2 delivered %d of %d messages", got, n)
	}
	var flushes []sim.Time
	for d, made := range madeAt {
		sent := w.sendTimes(d)[0]
		if wait := sent.Sub(made); wait > maxBatchDelay {
			t.Errorf("%s waited %v in the batch, over maxBatchDelay %v", d, wait, maxBatchDelay)
		}
	}
	for _, e := range w.tracer.Events {
		if e.What == trace.LWGSend && e.Node == 1 && e.At >= start &&
			(len(flushes) == 0 || flushes[len(flushes)-1] != e.At) {
			flushes = append(flushes, e.At)
		}
	}
	for i := 1; i < len(flushes); i++ {
		if d := flushes[i].Sub(flushes[i-1]); d < maxBatchDelay {
			t.Fatalf("flushes at %v and %v are %v apart, under maxBatchDelay %v",
				flushes[i-1], flushes[i], d, maxBatchDelay)
		}
	}
	// 20 ms of sends: the first leaves alone, then one flush per
	// maxBatchDelay carrying five.
	if want := int(time.Duration(n)*gap/maxBatchDelay) + 1; len(flushes) != want {
		t.Fatalf("%d flushes for %d sends, want %d", len(flushes), n, want)
	}
}

// TestBatchStoppedHWGRequeues: when the HWG stops with data parked in
// the batch, the batch goes back to the LWG's pending sends and nothing
// is multicast until the next HWG view.
func TestBatchStoppedHWGRequeues(t *testing.T) {
	w := batchWorld(t, 4, batchCfg())
	_, gid := w.requireLWG("a", 1, 2)
	w.primeHWG(1, "a")
	ep := w.eps[1]
	st, m := ep.hwgs[gid], ep.lwgs["a"]

	if err := ep.Send("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(st.batch) != 1 || st.batchTimer == nil {
		t.Fatalf("x not parked: batch %d, timer armed %v", len(st.batch), st.batchTimer != nil)
	}
	if err := w.eps[3].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.s.RunWhile(func() bool { return !st.stopped })
	if len(st.batch) != 0 || st.batchTimer != nil {
		t.Fatalf("stopped HWG kept its batch: %d parked, timer armed %v", len(st.batch), st.batchTimer != nil)
	}
	if len(m.pendingSends) != 1 || string(m.pendingSends[0]) != "x" {
		t.Fatalf("pending sends %q, want [x]", m.pendingSends)
	}
	frames := w.dataFrames()
	if err := ep.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	ep.flushBatch(st) // as a control send would
	if n := w.dataFrames() - frames; n != 0 {
		t.Fatalf("%d HWG multicasts from a stopped HWG", n)
	}
	if len(st.batch) != 0 || len(m.pendingSends) != 2 {
		t.Fatalf("send on a stopped HWG: %d parked, pending %q; want it pending", len(st.batch), m.pendingSends)
	}
	mark := len(w.tracer.Events)
	w.s.RunWhile(func() bool { return st.stopped })
	install := w.firstEvent(mark, func(e trace.Event) bool {
		return e.What == trace.HWGViewInstall && e.Node == 1
	})
	if sent := w.firstEvent(mark, func(e trace.Event) bool { return e.What == trace.LWGSend }); sent >= 0 && sent < install {
		t.Fatalf("sent while the HWG was stopped: %v", w.tracer.Events[sent])
	}

	w.run(8 * time.Second)
	w.requireLWG("a", 1, 2, 3)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); fmt.Sprint(got) != "[p x y]" {
			t.Errorf("%v delivered %v, want [p x y]", p, got)
		}
	}
}
