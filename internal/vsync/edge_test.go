package vsync

import (
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
)

// TestConcurrentAdmissionSingleCommit is the regression test for the
// joiner-commitment rule: two concurrent singleton coordinators both try
// to admit the same joiner; the joiner must end up in exactly one view,
// and no coordinator may install a view claiming a member that never
// joined it.
func TestConcurrentAdmissionSingleCommit(t *testing.T) {
	w := newWorld(t, 3)
	// p0 and p2 form concurrent singleton views (they join while p1
	// stays out, then the two views exist side by side before merging).
	if err := w.stacks[0].Create(g1); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[2].Create(g1); err != nil {
		t.Fatal(err)
	}
	// p1 joins immediately: both coordinators see the JOIN-REQ at the
	// same time and race to admit.
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(500 * time.Millisecond)
	// Invariant: no process's installed view may contain p1 unless p1
	// itself has installed that very view.
	for pid, st := range w.stacks {
		v, ok := st.CurrentView(g1)
		if !ok || !v.Contains(1) || pid == 1 {
			continue
		}
		v1, ok1 := w.stacks[1].CurrentView(g1)
		if !ok1 || v1.ID != v.ID {
			t.Fatalf("%v installed %v claiming p1, but p1 has %v (ok=%v)", pid, v, v1, ok1)
		}
	}
	// Eventually everyone converges anyway.
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	checkViewSynchrony(t, w, g1)
}

// TestHeartbeatsFromForeignViewsDoNotFeedFD is the regression test for
// the view-tagged failure detector: liveness evidence from a process in
// a different view must not mask divergence.
func TestHeartbeatsFromForeignViewsDoNotFeedFD(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1)

	// Force divergence: p1 is excluded via a partition, forms a
	// singleton, then the network heals. While both run concurrent
	// views, their heartbeats cross — and must NOT prevent the merge
	// machinery from running (if foreign heartbeats fed the FD, a view
	// erroneously containing a divergent member would never heal).
	w.nw.SetPartitions([]netsim.NodeID{0}, []netsim.NodeID{1})
	w.run(2 * time.Second)
	w.nw.Heal()
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1)
}

// TestInitiatorCrashDuringFlush: the initiator dies between STOP and
// NEW-VIEW; responders must resume via responderTimeout and re-form the
// group without it.
func TestInitiatorCrashDuringFlush(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	w.ups[1].manualStop = true // from now on, p1 blocks flushes
	// p0 (coordinator) admits a new round by excluding a leaver; freeze
	// it by crashing p0 right after the STOP goes out.
	_ = w.stacks[2].Leave(g1)
	w.run(30 * time.Millisecond) // STOP is out, p1 blocks the flush
	w.nw.Crash(0)
	w.ups[1].manualStop = false
	_ = w.stacks[1].StopOk(g1)
	w.run(8 * time.Second)
	// p1 must have survived the stalled flush and now run its own view.
	v, ok := w.stacks[1].CurrentView(g1)
	if !ok {
		t.Fatal("p1 lost its membership after the initiator crash")
	}
	if !v.Members.Equal(ids.NewMembers(1)) {
		t.Fatalf("surviving view = %v, want {p1} (p0 crashed, p2 left)", v)
	}
}

// TestAllMembersLeave drains a group completely.
func TestAllMembersLeave(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Leave(g1); err != nil {
			t.Fatal(err)
		}
		w.run(time.Second)
	}
	for i := 0; i < 3; i++ {
		if w.stacks[ids.ProcessID(i)].IsMember(g1) {
			t.Errorf("p%d still a member after everyone left", i)
		}
	}
}

// TestJoinLeaveJoinAgain re-joins a group after leaving it.
func TestJoinLeaveJoinAgain(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	if err := w.stacks[1].Leave(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1)
	checkViewSynchrony(t, w, g1)
}

// TestSimultaneousCrashOfMajority kills 3 of 4 members at once.
func TestSimultaneousCrashOfMajority(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.Crash(1)
	w.nw.Crash(2)
	w.nw.Crash(3)
	w.run(5 * time.Second)
	v, ok := w.stacks[0].CurrentView(g1)
	if !ok || !v.Members.Equal(ids.NewMembers(0)) {
		t.Fatalf("survivor view = %v ok=%v, want {p0} (no primary partition needed)", v, ok)
	}
}

// TestDataLargerThanTypical exercises big payload accounting.
func TestLargePayloadDelivery(t *testing.T) {
	w := newWorld(t, 2)
	_ = w.stacks[0].Join(g1)
	_ = w.stacks[1].Join(g1)
	w.run(3 * time.Second)
	if err := w.stacks[0].Send(g1, tPayload{ID: "big", Size: 60_000}); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	found := false
	for _, e := range w.ups[1].log[g1] {
		if e.kind == "data" && e.pay == "big" {
			found = true
		}
	}
	if !found {
		t.Fatal("large payload not delivered")
	}
	// A 60 KB frame at 10 Mbps takes ~48 ms on the wire; the traffic
	// stats must reflect the payload.
	if st := w.nw.Stats(); st.Bytes < 60_000 {
		t.Errorf("stats bytes = %d", st.Bytes)
	}
}

// TestPartitionDuringJoin: the group splits while a joiner's admission
// is in flight.
func TestPartitionDuringJoin(t *testing.T) {
	w := newWorld(t, 3)
	_ = w.stacks[0].Join(g1)
	_ = w.stacks[1].Join(g1)
	w.run(3 * time.Second)
	// p2 starts joining; the partition separates it from the group
	// moments later.
	_ = w.stacks[2].Join(g1)
	w.s.After(20*time.Millisecond, func() {
		w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	})
	w.run(3 * time.Second)
	// p2 must have fallen back to a singleton view on its side.
	v2, ok := w.stacks[2].CurrentView(g1)
	if !ok || !v2.Members.Equal(ids.NewMembers(2)) {
		t.Fatalf("isolated joiner view = %v ok=%v", v2, ok)
	}
	w.nw.Heal()
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
}
