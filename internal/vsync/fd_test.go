package vsync

import (
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
)

// spike is the cut the spike tests inject. A peer's silence as observed
// starts at its last heartbeat before the cut, up to one
// HeartbeatInterval earlier, and ends at its first one after, so 280ms
// reads as well past FDTimeout yet clears the suspicion budget of
// FDTimeout + (FDSuspectMisses-1)*FDCheckInterval: with FDSuspectMisses
// at 1 the tests below fail.
const spike = 280 * time.Millisecond

// TestFDToleratesDelaySpike: a silence spike longer than FDTimeout but
// shorter than the strike budget must NOT change the view. Under the old
// single-comparison detector the first check past FDTimeout suspected
// the peer and forced a spurious reconfiguration.
func TestFDToleratesDelaySpike(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	before := w.requireSameView(g1, 0, 1, 2)

	w.nw.SetPartitions([]netsim.NodeID{0}, []netsim.NodeID{1, 2})
	w.run(spike)
	w.nw.Heal()
	w.run(3 * time.Second)

	after := w.requireSameView(g1, 0, 1, 2)
	if after.ID != before.ID {
		t.Fatalf("delay spike forced a view change: %v -> %v", before.ID, after.ID)
	}
	checkViewSynchrony(t, w, g1)
}

// TestFDStillDetectsSustainedSilence: the strike budget must delay
// suspicion, not disable it — a genuinely dead member is still excluded.
func TestFDStillDetectsSustainedSilence(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2)

	w.nw.Crash(2)
	w.run(3 * time.Second)
	v := w.requireSameView(g1, 0, 1)
	if v.Members.Contains(2) {
		t.Fatalf("crashed member still in view %v", v)
	}
	checkViewSynchrony(t, w, g1)
}

// TestFDStrikesResetOnHeartbeat: strikes accumulated during a spike are
// cleared once the peer is heard again, so two separate sub-budget
// spikes do not add up to a suspicion.
func TestFDStrikesResetOnHeartbeat(t *testing.T) {
	w := newWorld(t, 2)
	for i := 0; i < 2; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	before := w.requireSameView(g1, 0, 1)

	for i := 0; i < 3; i++ {
		w.nw.SetPartitions([]netsim.NodeID{0}, []netsim.NodeID{1})
		w.run(spike)
		w.nw.Heal()
		w.run(time.Second) // heartbeats resume, strikes reset
	}
	after := w.requireSameView(g1, 0, 1)
	if after.ID != before.ID {
		t.Fatalf("repeated sub-budget spikes forced a view change: %v -> %v", before.ID, after.ID)
	}
}
