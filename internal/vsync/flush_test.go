package vsync

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

func TestCreateInstallsSingletonImmediately(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.stacks[0].Create(g1); err != nil {
		t.Fatal(err)
	}
	// No join-discovery timeout: the view exists before any time passes.
	v, ok := w.stacks[0].CurrentView(g1)
	if !ok || !v.Members.Equal(ids.NewMembers(0)) {
		t.Fatalf("Create did not install a singleton view: %v %v", v, ok)
	}
	if err := w.stacks[0].Create(g1); err != ErrAlreadyJoined {
		t.Fatalf("second Create = %v", err)
	}
	// A racing Create elsewhere merges through presence discovery.
	if err := w.stacks[1].Create(g1); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1)
}

func TestForcedFlushInstallsSameMembership(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	before := w.requireSameView(g1, 0, 1, 2)

	// Only the coordinator can force; a non-coordinator call is a no-op.
	if err := w.stacks[1].Flush(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if v := w.view(0, g1); v.ID != before.ID {
		t.Fatalf("non-coordinator Flush changed the view: %v", v)
	}

	if err := w.stacks[0].Flush(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	after := w.requireSameView(g1, 0, 1, 2)
	if after.ID == before.ID {
		t.Fatal("forced flush must install a fresh view identifier")
	}
	if err := w.stacks[1].Flush(ids.HWGID(99)); err != ErrNotMember {
		t.Fatalf("Flush on unknown group = %v", err)
	}
}

func TestDigestTracking(t *testing.T) {
	// Unit-level check of the flush digest: contiguous prefix plus
	// out-of-order extras, with absorption when gaps close.
	s := sim.New(1)
	nw := netsim.New(s, netsim.DefaultParams())
	st := NewStack(Params{Net: nw, PID: 0})
	nw.AddNode(0, nil)
	if err := st.Create(g1); err != nil {
		t.Fatal(err)
	}
	m := st.groups[g1]
	mk := func(seq uint64) *msgData {
		return &msgData{GID: g1, View: m.view.ID, Sender: 7, Seq: seq, Payload: tPayload{ID: "x"}}
	}
	m.deliverData(mk(1))
	m.deliverData(mk(2))
	if m.deliveredSeq[7] != 2 || len(m.extras) != 0 {
		t.Fatalf("contig = %d extras = %d, want 2/0", m.deliveredSeq[7], len(m.extras))
	}
	// Out of order: 5 and 4 arrive before 3.
	m.deliverData(mk(5))
	m.deliverData(mk(4))
	if m.deliveredSeq[7] != 2 || len(m.extras) != 2 {
		t.Fatalf("contig = %d extras = %d, want 2/2", m.deliveredSeq[7], len(m.extras))
	}
	// 3 closes the gap; extras are absorbed.
	m.deliverData(mk(3))
	if m.deliveredSeq[7] != 5 || len(m.extras) != 0 {
		t.Fatalf("contig = %d extras = %d, want 5/0", m.deliveredSeq[7], len(m.extras))
	}
	// Duplicates are ignored.
	m.deliverData(mk(3))
	if m.deliveredSeq[7] != 5 {
		t.Fatalf("duplicate moved the digest: %d", m.deliveredSeq[7])
	}
}

// TestGapRetransmissionOnDivergence drives the flush-pull path: delivery
// jitter (a delay=0..3ms fault rule) plus a partition striking mid-flight
// make two members of one side diverge on the messages they received; the
// flush digests expose the gap, the initiator pulls the copies, and view
// synchrony holds.
func TestGapRetransmissionOnDivergence(t *testing.T) {
	runSeed := func(seed int64) (pulled bool, w *world) {
		s := sim.New(seed)
		nw := netsim.New(s, netsim.DefaultParams())
		nw.SetFaults(&faults.Spec{Default: &faults.Rule{DelayMax: 3 * time.Millisecond}})
		rec := &trace.Recorder{}
		w = &world{
			t: t, s: s, nw: nw,
			stacks: make(map[ids.ProcessID]*Stack),
			ups:    make(map[ids.ProcessID]*tUp),
		}
		for i := 0; i < 4; i++ {
			pid := ids.ProcessID(i)
			up := &tUp{pid: pid, log: make(map[ids.HWGID][]logEntry), s: s}
			st := NewStack(Params{Net: nw, PID: pid, Upcalls: up, Tracer: rec})
			up.st = st
			mux := netsim.NewMux()
			mux.Handle(AddrPrefix, st.HandleMessage)
			nw.AddNode(pid, mux.Handler())
			w.stacks[pid] = st
			w.ups[pid] = up
		}
		for i := 0; i < 4; i++ {
			if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
				t.Fatal(err)
			}
		}
		w.run(5 * time.Second)
		w.requireSameView(g1, 0, 1, 2, 3)

		// Burst of sends from p0, partition strikes while frames are in
		// flight: with jitter, p2 and p3 may receive different prefixes.
		for i := 0; i < 10; i++ {
			_ = w.stacks[0].Send(g1, tPayload{ID: fmt.Sprintf("m%d", i), Size: 400})
		}
		s.After(2*time.Millisecond, func() {
			nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
		})
		w.run(4 * time.Second)

		for _, e := range rec.Events {
			if e.What == "flush-pull" {
				pulled = true
			}
		}
		return pulled, w
	}

	for seed := int64(1); seed <= 40; seed++ {
		pulled, w := runSeed(seed)
		// Whatever happened, view synchrony must hold on both sides.
		checkViewSynchrony(t, w, g1)
		if pulled {
			return // the gap machinery ran and the invariant held
		}
	}
	t.Fatal("no seed exercised the flush-pull path; divergence injection is broken")
}

func TestPeriodicAcksSurvivePartitionMerge(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(2 * time.Second)
	_ = w.stacks[0].Send(g1, tPayload{ID: "A"})
	_ = w.stacks[2].Send(g1, tPayload{ID: "B"})
	w.run(2 * time.Second)
	w.nw.Heal()
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)
	checkViewSynchrony(t, w, g1)
	// Stability must also converge in the merged view.
	_ = w.stacks[3].Send(g1, tPayload{ID: "C"})
	w.run(2 * time.Second)
	for pid := ids.ProcessID(0); pid < 4; pid++ {
		if n := len(w.stacks[pid].groups[g1].buffer); n != 0 {
			t.Errorf("%v still buffers %d messages", pid, n)
		}
	}
}

func TestLeaveDuringPartition(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(3 * time.Second)
	// p3 leaves while partitioned; after the heal, the merged view must
	// contain everyone except p3.
	if err := w.stacks[3].Leave(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.nw.Heal()
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	if w.stacks[3].IsMember(g1) {
		t.Error("leaver still present")
	}
}

func TestThreeWayPartitionAndHeal(t *testing.T) {
	w := newWorld(t, 6)
	for i := 0; i < 6; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3, 4, 5)
	w.nw.SetPartitions(
		[]netsim.NodeID{0, 1},
		[]netsim.NodeID{2, 3},
		[]netsim.NodeID{4, 5},
	)
	w.run(3 * time.Second)
	for _, pair := range [][2]ids.ProcessID{{0, 1}, {2, 3}, {4, 5}} {
		va := w.view(pair[0], g1)
		if va.ID != w.view(pair[1], g1).ID {
			t.Fatalf("component %v did not agree", pair)
		}
		if !va.Members.Equal(ids.NewMembers(pair[0], pair[1])) {
			t.Fatalf("component %v members = %v", pair, va.Members)
		}
	}
	w.nw.Heal()
	w.run(6 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3, 4, 5)
	checkViewSynchrony(t, w, g1)
}

func TestAsymmetricPartitionSizes(t *testing.T) {
	// A 5|1 split: the singleton side keeps operating and merges back.
	w := newWorld(t, 6)
	for i := 0; i < 6; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1, 2, 3, 4}, []netsim.NodeID{5})
	w.run(3 * time.Second)
	v5 := w.view(5, g1)
	if !v5.Members.Equal(ids.NewMembers(5)) {
		t.Fatalf("isolated member view = %v", v5)
	}
	_ = w.stacks[5].Send(g1, tPayload{ID: "alone"}) // progress while isolated
	w.run(time.Second)
	w.nw.Heal()
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3, 4, 5)
	checkViewSynchrony(t, w, g1)
}
