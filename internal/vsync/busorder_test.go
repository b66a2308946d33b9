package vsync

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
)

// The HWG multicast promises per-sender FIFO only. The tests in this
// file pin what the simulated shared bus adds on top: it hands every
// receiver every frame in one order, so members of a view deliver one
// identical sequence, across member and coordinator crashes and across a
// partition merge. The light-weight group flush relies on exactly that
// (core.maybeLwgReconfig); over UDP it does not hold.

// deliveredSeqOf extracts the exact delivery sequence at one member.
func deliveredSeqOf(u *tUp, gid ids.HWGID) []string {
	var out []string
	for _, e := range u.log[gid] {
		if e.kind == "data" {
			out = append(out, fmt.Sprintf("%v:%s", e.src, e.pay))
		}
	}
	return out
}

func requireIdenticalSequences(t *testing.T, w *world, gid ids.HWGID, pids ...ids.ProcessID) {
	t.Helper()
	ref := deliveredSeqOf(w.ups[pids[0]], gid)
	for _, p := range pids[1:] {
		got := deliveredSeqOf(w.ups[p], gid)
		if len(got) != len(ref) {
			t.Fatalf("%v delivered %d messages, %v delivered %d\n%v\nvs\n%v",
				p, len(got), pids[0], len(ref), got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order violated at position %d: %v saw %q, %v saw %q",
					i, p, got[i], pids[0], ref[i])
			}
		}
	}
}

func TestTotalOrderUniformDelivery(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)

	// Three senders interleave bursts in the same instants.
	for round := 0; round < 10; round++ {
		for _, s := range []ids.ProcessID{1, 2, 3} {
			_ = w.stacks[s].Send(g1, tPayload{ID: fmt.Sprintf("r%d", round)})
		}
	}
	w.run(2 * time.Second)
	for _, p := range []ids.ProcessID{0, 1, 2, 3} {
		if got := len(deliveredSeqOf(w.ups[p], g1)); got != 30 {
			t.Fatalf("%v delivered %d, want 30", p, got)
		}
	}
	requireIdenticalSequences(t, w, g1, 0, 1, 2, 3)
}

func TestTotalOrderAcrossMemberCrash(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	// Traffic flows while a (non-coordinator) member crashes.
	tick := w.s.Every(15*time.Millisecond, func() {
		for _, s := range []ids.ProcessID{1, 2} {
			if !w.nw.Crashed(s) {
				_ = w.stacks[s].Send(g1, tPayload{ID: fmt.Sprintf("t%d", w.s.Steps())})
			}
		}
	})
	w.run(500 * time.Millisecond)
	w.nw.Crash(3)
	w.run(2 * time.Second)
	tick.Stop()
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	requireIdenticalSequences(t, w, g1, 0, 1, 2)
	checkViewSynchrony(t, w, g1)
}

func TestTotalOrderSequencerCrashResidue(t *testing.T) {
	// The coordinator crashes mid-stream: the survivors close the view
	// on one identical sequence.
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	if !w.stacks[0].IsCoordinator(g1) {
		t.Fatal("p0 should coordinate")
	}
	// Burst from several senders, then kill the coordinator while the
	// burst is still on the bus.
	for i := 0; i < 8; i++ {
		_ = w.stacks[1].Send(g1, tPayload{ID: fmt.Sprintf("a%d", i)})
		_ = w.stacks[2].Send(g1, tPayload{ID: fmt.Sprintf("b%d", i)})
	}
	w.s.After(2*time.Millisecond, func() { w.nw.Crash(0) })
	w.run(5 * time.Second)
	w.requireSameView(g1, 1, 2, 3)
	requireIdenticalSequences(t, w, g1, 1, 2, 3)
	// Nothing may be lost: survivors deliver all 16 messages.
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if got := len(deliveredSeqOf(w.ups[p], g1)); got != 16 {
			t.Errorf("%v delivered %d, want 16", p, got)
		}
	}
	checkViewSynchrony(t, w, g1)
}

func TestTotalOrderAcrossPartitionMerge(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(2 * time.Second)
	_ = w.stacks[0].Send(g1, tPayload{ID: "A1"})
	_ = w.stacks[1].Send(g1, tPayload{ID: "A2"})
	_ = w.stacks[2].Send(g1, tPayload{ID: "B1"})
	_ = w.stacks[3].Send(g1, tPayload{ID: "B2"})
	w.run(time.Second)
	// Within each side the order is uniform.
	requireIdenticalSequences(t, w, g1, 0, 1)
	requireIdenticalSequences(t, w, g1, 2, 3)
	w.nw.Heal()
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)
	// Post-merge traffic is again totally ordered everywhere.
	for i := 0; i < 5; i++ {
		_ = w.stacks[0].Send(g1, tPayload{ID: fmt.Sprintf("m%d", i)})
		_ = w.stacks[3].Send(g1, tPayload{ID: fmt.Sprintf("n%d", i)})
	}
	mark := map[ids.ProcessID]int{}
	for _, p := range []ids.ProcessID{0, 1, 2, 3} {
		mark[p] = len(deliveredSeqOf(w.ups[p], g1))
	}
	w.run(2 * time.Second)
	ref := deliveredSeqOf(w.ups[0], g1)[mark[0]:]
	if len(ref) != 10 {
		t.Fatalf("post-merge deliveries = %d, want 10", len(ref))
	}
	for _, p := range []ids.ProcessID{1, 2, 3} {
		got := deliveredSeqOf(w.ups[p], g1)[mark[p]:]
		if len(got) != len(ref) {
			t.Fatalf("%v post-merge count %d != %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("post-merge order differs at %d: %q vs %q", i, got[i], ref[i])
			}
		}
	}
}
