package core

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
)

// dupNet wraps the simulated network and re-sends every frame once more
// after delay — the duplicate+reorder adversary the real UDP transport's
// fault layer produces. Applied to ALL traffic (data, acks, flush,
// heartbeats), it audits that every protocol layer is idempotent under
// datagram duplication: vsync's per-view dedup must keep duplicated
// msgData/lwgBatch frames from double-delivering to the application,
// and the cumulative (max-merge) ack vectors must not double-count
// duplicated piggybacked acks.
type dupNet struct {
	*netsim.Network
	delay time.Duration
}

func (d *dupNet) Multicast(from netsim.NodeID, addr netsim.Addr, msg netsim.Message) {
	d.Network.Multicast(from, addr, msg)
	d.Sim().After(d.delay, func() {
		d.Network.Multicast(from, addr, msg)
	})
}

func (d *dupNet) Unicast(from, to netsim.NodeID, addr netsim.Addr, msg netsim.Message) {
	d.Network.Unicast(from, to, addr, msg)
	d.Sim().After(d.delay, func() {
		d.Network.Unicast(from, to, addr, msg)
	})
}

// newDupWorld is newCWorld with every frame duplicated after delay.
func newDupWorld(t *testing.T, n int, serverPids []ids.ProcessID, cfg Config, delay time.Duration) *cWorld {
	t.Helper()
	return buildCWorld(t, n, Params{Servers: serverPids, Config: cfg}, naming.Config{},
		func(nw *netsim.Network) netsim.Transport { return &dupNet{Network: nw, delay: delay} })
}

// requireExactlyOnce asserts each pid delivered exactly the payloads in
// want, each exactly once (order-insensitive).
func requireExactlyOnce(t *testing.T, w *cWorld, lwg ids.LWGID, want []string, pids ...ids.ProcessID) {
	t.Helper()
	wantCount := make(map[string]int, len(want))
	for _, p := range want {
		wantCount[p]++
	}
	for _, pid := range pids {
		got := make(map[string]int)
		for _, d := range w.ups[pid].dataOf(lwg) {
			got[d]++
		}
		for p, n := range got {
			if n != wantCount[p] {
				t.Errorf("%v delivered %q %d times, want %d\ntrace:\n%s",
					pid, p, n, wantCount[p], w.tracer.Dump())
			}
		}
		for p, n := range wantCount {
			if got[p] != n {
				t.Errorf("%v delivered %q %d times, want %d", pid, p, got[p], n)
			}
		}
	}
}

// TestDuplicatedFramesDeliverOnce: with every frame (data + control +
// acks) duplicated shortly after the original, application delivery must
// stay exactly-once and membership must still converge.
func TestDuplicatedFramesDeliverOnce(t *testing.T) {
	w := newDupWorld(t, 3, []ids.ProcessID{0}, testCfg(), 10*time.Millisecond)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	var want []string
	for i := 0; i < 20; i++ {
		pay := fmt.Sprintf("m%d", i)
		want = append(want, pay)
		if err := w.eps[1+ids.ProcessID(i%2)].Send("a", []byte(pay)); err != nil {
			t.Fatal(err)
		}
		w.run(5 * time.Millisecond)
	}
	w.run(3 * time.Second)
	w.requireLWG("a", 1, 2)
	requireExactlyOnce(t, w, "a", want, 1, 2)
}

// TestDuplicatedBatchAcrossViewChange: duplicates arrive 400ms late —
// after a member crash has forced a view change — so stale lwgBatch
// frames tagged with the old view land inside the new one. They must be
// discarded by the genealogy filter, not re-delivered.
func TestDuplicatedBatchAcrossViewChange(t *testing.T) {
	w := newDupWorld(t, 4, []ids.ProcessID{0}, testCfg(), 400*time.Millisecond)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2, 3)

	var want []string
	for i := 0; i < 10; i++ {
		pay := fmt.Sprintf("pre%d", i)
		want = append(want, pay)
		if err := w.eps[1].Send("a", []byte(pay)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash p3 while the duplicates are still in flight: the survivors
	// reconfigure, then the late duplicates arrive under the new view.
	w.run(50 * time.Millisecond)
	w.nw.Crash(3)
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	// Traffic in the new view must still flow and stay exactly-once.
	for i := 0; i < 10; i++ {
		pay := fmt.Sprintf("post%d", i)
		want = append(want, pay)
		if err := w.eps[2].Send("a", []byte(pay)); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	requireExactlyOnce(t, w, "a", want, 1, 2)
}

// TestDuplicatedReorderedAcksConverge: long-delayed duplicates mean every
// piggybacked ack vector is also replayed out of order; the cumulative
// max-merge semantics must keep stability (and thus retransmission
// buffers) correct — observable as the group still converging and
// delivering exactly-once after heavy traffic.
func TestDuplicatedReorderedAcksConverge(t *testing.T) {
	w := newDupWorld(t, 3, []ids.ProcessID{0}, testCfg(), 150*time.Millisecond)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)

	var want []string
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			pay := fmt.Sprintf("r%d-%d", round, i)
			want = append(want, pay)
			if err := w.eps[1+ids.ProcessID(i%2)].Send("a", []byte(pay)); err != nil {
				t.Fatal(err)
			}
		}
		w.run(300 * time.Millisecond)
	}
	w.run(3 * time.Second)
	w.requireLWG("a", 1, 2)
	requireExactlyOnce(t, w, "a", want, 1, 2)
}
