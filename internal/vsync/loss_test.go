package vsync

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// lossyWorld builds a cluster on a network that drops a fraction of
// deliveries, like real UDP.
func lossyWorld(t *testing.T, n int, lossRate float64, seed int64) *world {
	t.Helper()
	w := netWorld(t, n, netsim.DefaultParams(), seed)
	w.nw.SetFaults(&faults.Spec{Default: &faults.Rule{Loss: lossRate}})
	return w
}

// netWorld builds a cluster of n stacks on the given network.
func netWorld(tb testing.TB, n int, params netsim.Params, seed int64) *world {
	s := sim.New(seed)
	nw := netsim.New(s, params)
	w := &world{
		t: tb, s: s, nw: nw,
		stacks: make(map[ids.ProcessID]*Stack),
		ups:    make(map[ids.ProcessID]*tUp),
	}
	for i := 0; i < n; i++ {
		pid := ids.ProcessID(i)
		up := &tUp{pid: pid, log: make(map[ids.HWGID][]logEntry), s: s}
		st := NewStack(Params{Net: nw, PID: pid, Upcalls: up})
		up.st = st
		mux := netsim.NewMux()
		mux.Handle(AddrPrefix, st.HandleMessage)
		nw.AddNode(pid, mux.Handler())
		w.stacks[pid] = st
		w.ups[pid] = up
	}
	return w
}

// TestLossRepairDelivery: with 3% delivery loss, NACK-based repair (plus
// the periodic ack vectors) must still deliver every message everywhere.
func TestLossRepairDelivery(t *testing.T) {
	w := lossyWorld(t, 3, 0.03, 5)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	w.requireSameView(g1, 0, 1, 2)

	const msgs = 100
	for i := 0; i < msgs; i++ {
		sender := ids.ProcessID(i % 3)
		_ = w.stacks[sender].Send(g1, tPayload{ID: fmt.Sprintf("l%d", i), Size: 300})
		w.run(10 * time.Millisecond)
	}
	w.run(5 * time.Second) // repair time

	if st := w.nw.Stats(); st.Dropped == 0 {
		t.Fatal("the lossy network dropped nothing; test is vacuous")
	}
	for pid := ids.ProcessID(0); pid < 3; pid++ {
		got := 0
		for _, e := range w.ups[pid].log[g1] {
			if e.kind == "data" {
				got++
			}
		}
		if got != msgs {
			t.Errorf("%v delivered %d/%d despite loss repair", pid, got, msgs)
		}
	}
	checkViewSynchrony(t, w, g1)
}

// TestLossyMembershipChurn: joins, a crash and a view change under loss.
func TestLossyMembershipChurn(t *testing.T) {
	w := lossyWorld(t, 4, 0.02, 11)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	if err := w.stacks[3].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)
	w.nw.Crash(2)
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 3)
	checkViewSynchrony(t, w, g1)
}
