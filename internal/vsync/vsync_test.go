package vsync

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/check"
	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// tPayload is a test payload.
type tPayload struct {
	ID   string
	Size int
}

func (p tPayload) WireSize() int {
	if p.Size > 0 {
		return p.Size
	}
	return len(p.ID)
}

// logEntry is one upcall observed by a test process.
type logEntry struct {
	kind string // "view", "data", "stop"
	view ids.View
	src  ids.ProcessID
	pay  string
	at   sim.Time
}

// tUp records upcalls per group.
type tUp struct {
	pid ids.ProcessID
	st  *Stack
	log map[ids.HWGID][]logEntry
	s   *sim.Sim
	// manualStop, when set, leaves Stop unanswered until the test calls
	// StopOk itself.
	manualStop bool
}

func (u *tUp) View(gid ids.HWGID, v ids.View) {
	u.log[gid] = append(u.log[gid], logEntry{kind: "view", view: v, at: u.s.Now()})
}

func (u *tUp) Data(gid ids.HWGID, src ids.ProcessID, p Payload) {
	tp, _ := p.(tPayload)
	u.log[gid] = append(u.log[gid], logEntry{kind: "data", src: src, pay: tp.ID, at: u.s.Now()})
}

func (u *tUp) Stop(gid ids.HWGID) {
	u.log[gid] = append(u.log[gid], logEntry{kind: "stop", at: u.s.Now()})
	if !u.manualStop {
		// Behave like a prompt user: quiesce immediately.
		if err := u.st.StopOk(gid); err != nil {
			panic(err)
		}
	}
}

// world is a test cluster.
type world struct {
	t      testing.TB
	s      *sim.Sim
	nw     *netsim.Network
	stacks map[ids.ProcessID]*Stack
	ups    map[ids.ProcessID]*tUp
}

func newWorld(t *testing.T, n int) *world {
	t.Helper()
	return lossyWorld(t, n, 0, 1)
}

func (w *world) run(d time.Duration) { w.s.RunFor(d) }

// view returns the current view of gid at pid, failing if absent.
func (w *world) view(pid ids.ProcessID, gid ids.HWGID) ids.View {
	w.t.Helper()
	v, ok := w.stacks[pid].CurrentView(gid)
	if !ok {
		w.t.Fatalf("%v has no view of %v", pid, gid)
	}
	return v
}

// requireSameView asserts all pids share one view of gid with the given
// membership.
func (w *world) requireSameView(gid ids.HWGID, pids ...ids.ProcessID) ids.View {
	w.t.Helper()
	want := w.view(pids[0], gid)
	for _, p := range pids[1:] {
		got := w.view(p, gid)
		if got.ID != want.ID {
			w.t.Fatalf("%v view %v != %v view %v", p, got, pids[0], want)
		}
	}
	wantMembers := ids.NewMembers(pids...)
	if !want.Members.Equal(wantMembers) {
		w.t.Fatalf("view members %v, want %v", want.Members, wantMembers)
	}
	return want
}

// sameView reports whether processes 0..n-1 share one view of gid
// holding exactly them.
func (w *world) sameView(gid ids.HWGID, n int) bool {
	v0, ok := w.stacks[0].CurrentView(gid)
	if !ok || len(v0.Members) != n {
		return false
	}
	for p := ids.ProcessID(1); int(p) < n; p++ {
		if v, ok := w.stacks[p].CurrentView(gid); !ok || v.ID != v0.ID {
			return false
		}
	}
	return true
}

// checkViewSynchrony verifies the defining property: any two processes
// that both install the same two consecutive views delivered the same
// messages between them. The comparison itself lives in internal/check,
// shared with the LWG-level chaos tests and the schedule explorer.
func checkViewSynchrony(t *testing.T, w *world, gid ids.HWGID) {
	t.Helper()
	logs := make(map[ids.ProcessID][]check.Record)
	for pid, up := range w.ups {
		var rec []check.Record
		for _, e := range up.log[gid] {
			switch e.kind {
			case "view":
				rec = append(rec, check.Install(e.view.ID))
			case "data":
				rec = append(rec, check.Deliver(e.src, e.pay))
			}
		}
		logs[pid] = rec
	}
	for _, v := range check.Agreement(gid.String(), logs, nil) {
		t.Errorf("view synchrony violated: %s", v)
	}
}

const g1 ids.HWGID = 1

// --- tests ---------------------------------------------------------------

func TestSingletonFormation(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	v := w.view(0, g1)
	if !v.Members.Equal(ids.NewMembers(0)) {
		t.Fatalf("singleton view = %v", v)
	}
	if !w.stacks[0].IsCoordinator(g1) {
		t.Error("sole member must be coordinator")
	}
}

func TestJoinExistingView(t *testing.T) {
	w := newWorld(t, 2)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second) // p0 forms a singleton
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireSameView(g1, 0, 1)
}

func TestManyConcurrentJoinsConverge(t *testing.T) {
	const n = 6
	w := newWorld(t, n)
	var pids []ids.ProcessID
	for i := 0; i < n; i++ {
		pid := ids.ProcessID(i)
		pids = append(pids, pid)
		if err := w.stacks[pid].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	w.requireSameView(g1, pids...)
	checkViewSynchrony(t, w, g1)
}

func TestDoubleJoinRejected(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[0].Join(g1); err != ErrAlreadyJoined {
		t.Fatalf("second Join = %v, want ErrAlreadyJoined", err)
	}
}

func TestSendToUnjoinedGroup(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.stacks[0].Send(g1, tPayload{ID: "x"}); err != ErrNotMember {
		t.Fatalf("Send = %v, want ErrNotMember", err)
	}
	if err := w.stacks[0].Leave(g1); err != ErrNotMember {
		t.Fatalf("Leave = %v, want ErrNotMember", err)
	}
}

func TestDataDeliveryToAllMembers(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2)

	if err := w.stacks[0].Send(g1, tPayload{ID: "hello"}); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	for pid := ids.ProcessID(0); pid < 3; pid++ {
		var got []string
		for _, e := range w.ups[pid].log[g1] {
			if e.kind == "data" {
				got = append(got, e.pay)
			}
		}
		if len(got) != 1 || got[0] != "hello" {
			t.Errorf("%v delivered %v, want [hello] (self-delivery included)", pid, got)
		}
	}
}

func TestStabilityDiscardsBuffers(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	for i := 0; i < 10; i++ {
		if err := w.stacks[0].Send(g1, tPayload{ID: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.run(2 * time.Second)
	for pid := ids.ProcessID(0); pid < 3; pid++ {
		m := w.stacks[pid].groups[g1]
		if len(m.buffer) != 0 {
			t.Errorf("%v still buffers %d messages after stability", pid, len(m.buffer))
		}
	}
}

// TestPeriodicAckStability: one sender, two idle receivers on a lossy
// network — nothing the receivers send carries their vector but their
// heartbeats, so stability rests on those, and a lost beat is repaired
// by the next one: every buffer drains a few heartbeats after the last
// send.
func TestPeriodicAckStability(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		w := lossyWorld(t, 3, 0.05, seed)
		for i := 0; i < 3; i++ {
			if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
				t.Fatal(err)
			}
		}
		// Lost join frames can cost a few flush rounds: wait for the view.
		for d := time.Duration(0); d < 10*time.Second && !w.sameView(g1, 3); d += HeartbeatInterval {
			w.run(HeartbeatInterval)
		}
		w.requireSameView(g1, 0, 1, 2)
		for i := 0; i < 10; i++ {
			if err := w.stacks[0].Send(g1, tPayload{ID: fmt.Sprintf("m%d", i)}); err != nil {
				t.Fatal(err)
			}
			w.run(time.Millisecond)
		}
		w.run(5 * HeartbeatInterval)
		w.requireSameView(g1, 0, 1, 2)
		for pid := ids.ProcessID(0); pid < 3; pid++ {
			if got := len(appData(w.ups[pid], g1)); got != 10 {
				t.Errorf("seed %d: %v delivered %d distinct messages, want 10", seed, pid, got)
			}
			if n := len(w.stacks[pid].groups[g1].buffer); n != 0 {
				t.Errorf("seed %d: %v still buffers %d messages %v after the last send",
					seed, pid, n, 5*HeartbeatInterval)
			}
		}
	}
}

// TestIdleBusBudget: an idle heavy-weight group costs its heartbeats and
// its coordinator's presence announcements and nothing else — no
// stability traffic once nothing changes. Eight members: 8 × 10 beats
// plus 4 presences a second.
func TestIdleBusBudget(t *testing.T) {
	const n = 8
	w := newWorld(t, n)
	for i := 0; i < n; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	pids := make([]ids.ProcessID, n)
	for i := range pids {
		pids[i] = ids.ProcessID(i)
	}
	view := w.requireSameView(g1, pids...)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Send(g1, tPayload{ID: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.run(time.Second)
	w.nw.ResetStats()
	const secs = 60
	w.run(secs * time.Second)
	if v := w.view(0, g1); v.ID != view.ID {
		t.Fatalf("view changed while idle: %v -> %v", view.ID, v.ID)
	}
	st := w.nw.Stats()
	beats := int64(secs * n * time.Second / HeartbeatInterval)
	presences := int64(secs * time.Second / presenceInterval)
	if st.ByKind["heartbeat"] != beats || st.ByKind["presence"] != presences || st.Frames != beats+presences {
		t.Errorf("idle bus over %ds: %d frames %v, want %d heartbeats + %d presences = %.0f frames/s",
			secs, st.Frames, st.ByKind, beats, presences, float64(beats+presences)/secs)
	}
}

// TestStableAtDeliveryWithoutVectors: where no member other than this
// process and the sender exists — a singleton, a two-member view at the
// receiver — a delivered message is stable at delivery and leaves the
// buffer before any acknowledgement vector could have arrived. The
// sender of a two-member view needs the peer's vector and keeps it.
func TestStableAtDeliveryWithoutVectors(t *testing.T) {
	for _, n := range []int{1, 2} {
		w := newWorld(t, n)
		for i := 0; i < n; i++ {
			if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
				t.Fatal(err)
			}
		}
		// Heartbeats go out on a 100 ms grid; send between two beats.
		w.run(4*time.Second + HeartbeatInterval/2)
		w.nw.ResetStats()
		if err := w.stacks[0].Send(g1, tPayload{ID: "m"}); err != nil {
			t.Fatal(err)
		}
		w.run(20 * time.Millisecond)
		// Stability at delivery must not have come from a vector: no
		// heartbeat, the one carrier besides data, is in the window.
		if got := w.nw.Stats().ByKind["heartbeat"]; got != 0 {
			t.Fatalf("n=%d: %d heartbeats in the window, want 0", n, got)
		}
		for pid := ids.ProcessID(0); int(pid) < n; pid++ {
			if len(w.ups[pid].log[g1]) == 0 {
				t.Fatalf("n=%d: %v delivered nothing", n, pid)
			}
			want := 0
			if n == 2 && pid == 0 {
				want = 1
			}
			if got := len(w.stacks[pid].groups[g1].buffer); got != want {
				t.Errorf("n=%d: %v buffers %d messages after delivery, want %d", n, pid, got, want)
			}
		}
	}
}

func TestLeave(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	if err := w.stacks[2].Leave(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireSameView(g1, 0, 1)
	if w.stacks[2].IsMember(g1) {
		t.Error("leaver still has member state")
	}
}

func TestCoordinatorLeave(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	// p0 is the coordinator (smallest pid).
	if !w.stacks[0].IsCoordinator(g1) {
		t.Fatal("expected p0 to coordinate")
	}
	if err := w.stacks[0].Leave(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireSameView(g1, 1, 2)
	if !w.stacks[1].IsCoordinator(g1) {
		t.Error("p1 should take over coordination")
	}
}

func TestLastMemberLeaveDissolvesGroup(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if err := w.stacks[0].Leave(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if w.stacks[0].IsMember(g1) {
		t.Error("group not dissolved")
	}
}

func TestCrashRecovery(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)

	w.nw.Crash(3)
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	checkViewSynchrony(t, w, g1)
}

func TestCoordinatorCrashRecovery(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.Crash(0) // the coordinator
	w.run(3 * time.Second)
	w.requireSameView(g1, 1, 2, 3)
	if !w.stacks[1].IsCoordinator(g1) {
		t.Error("p1 should take over after coordinator crash")
	}
	checkViewSynchrony(t, w, g1)
}

func TestPartitionSplitsViews(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)

	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(3 * time.Second)

	va := w.requireSameView(g1, 0, 1)
	// requireSameView checks membership == pids; need separate checks.
	vb := w.view(2, g1)
	if vb.ID != w.view(3, g1).ID {
		t.Fatal("side B did not agree on a view")
	}
	if !vb.Members.Equal(ids.NewMembers(2, 3)) {
		t.Fatalf("side B members = %v", vb.Members)
	}
	if va.ID == vb.ID {
		t.Fatal("concurrent views must be distinct")
	}
	checkViewSynchrony(t, w, g1)
}

func TestPartitionHealMergesViews(t *testing.T) {
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(3 * time.Second)
	// Traffic flows independently in both partitions.
	if err := w.stacks[0].Send(g1, tPayload{ID: "sideA"}); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[2].Send(g1, tPayload{ID: "sideB"}); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)

	w.nw.Heal()
	w.run(4 * time.Second)
	w.requireSameView(g1, 0, 1, 2, 3)
	checkViewSynchrony(t, w, g1)
}

func TestViewTaggedDeliveryAcrossPartition(t *testing.T) {
	// Messages sent inside partition A must not be delivered to members
	// of partition B (they were sent in a view B is not in).
	w := newWorld(t, 4)
	for i := 0; i < 4; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	w.run(3 * time.Second)
	if err := w.stacks[0].Send(g1, tPayload{ID: "private-A"}); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	w.nw.Heal()
	w.run(4 * time.Second)
	for _, pid := range []ids.ProcessID{2, 3} {
		for _, e := range w.ups[pid].log[g1] {
			if e.kind == "data" && e.pay == "private-A" {
				t.Errorf("%v delivered a message from a view it never installed", pid)
			}
		}
	}
}

func TestStopUpcallAndManualStopOk(t *testing.T) {
	w := newWorld(t, 2)
	w.ups[0].manualStop = true
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	// p0 starts a flush to admit p1; p0 gets the Stop upcall and the
	// flush must not complete until StopOk.
	w.run(time.Second)
	var stops int
	for _, e := range w.ups[0].log[g1] {
		if e.kind == "stop" {
			stops++
		}
	}
	if stops == 0 {
		t.Fatal("no Stop upcall delivered")
	}
	if _, ok := w.stacks[1].CurrentView(g1); ok {
		v, _ := w.stacks[1].CurrentView(g1)
		if v.Members.Contains(0) {
			t.Fatal("flush completed without StopOk")
		}
	}
	// Release the gate and behave promptly from now on (later flushes,
	// if any, auto-acknowledge).
	w.ups[0].manualStop = false
	if err := w.stacks[0].StopOk(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireSameView(g1, 0, 1)
}

func TestStopOkWithoutStopPending(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if err := w.stacks[0].StopOk(g1); err != ErrNoStopPending {
		t.Fatalf("StopOk = %v, want ErrNoStopPending", err)
	}
}

func TestSendsBufferedDuringFlush(t *testing.T) {
	w := newWorld(t, 2)
	w.ups[0].manualStop = true
	if err := w.stacks[0].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	if err := w.stacks[1].Join(g1); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second) // p0 now has a pending Stop upcall
	// Send while stopped: must be buffered, then delivered in new view.
	if err := w.stacks[0].Send(g1, tPayload{ID: "buffered"}); err != nil {
		t.Fatal(err)
	}
	w.ups[0].manualStop = false
	if err := w.stacks[0].StopOk(g1); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireSameView(g1, 0, 1)
	found := false
	for _, e := range w.ups[1].log[g1] {
		if e.kind == "data" && e.pay == "buffered" {
			found = true
		}
	}
	if !found {
		t.Error("message buffered during flush never delivered to the new view")
	}
}

func TestMultipleGroupsIndependent(t *testing.T) {
	const g2 ids.HWGID = 2
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.stacks[0].Join(g2); err != nil {
		t.Fatal(err)
	}
	if err := w.stacks[1].Join(g2); err != nil {
		t.Fatal(err)
	}
	w.run(5 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	vg2 := w.view(0, g2)
	if !vg2.Members.Equal(ids.NewMembers(0, 1)) {
		t.Fatalf("g2 members = %v", vg2.Members)
	}
	gs := w.stacks[0].Groups()
	if len(gs) != 2 || gs[0] != g1 || gs[1] != g2 {
		t.Errorf("Groups() = %v", gs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() string {
		w := newWorld(t, 5)
		for i := 0; i < 5; i++ {
			if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
				t.Fatal(err)
			}
		}
		w.run(3 * time.Second)
		w.nw.SetPartitions([]netsim.NodeID{0, 1, 2}, []netsim.NodeID{3, 4})
		w.run(3 * time.Second)
		w.nw.Heal()
		w.run(4 * time.Second)
		var out string
		for pid := ids.ProcessID(0); pid < 5; pid++ {
			out += fmt.Sprintf("%v:", pid)
			for _, e := range w.ups[pid].log[g1] {
				if e.kind == "view" {
					out += e.view.String() + ";"
				}
			}
			out += "\n"
		}
		return out
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("nondeterministic runs:\n%s\nvs\n%s", a, b)
	}
}

func TestTable1Interface(t *testing.T) {
	// Experiment E1: the substrate exports exactly the Table 1 interface.
	// Downcalls: Join, Leave, Send, StopOk. Upcalls: View, Data, Stop.
	// This assertion is structural: it fails to compile if the interface
	// drifts.
	type downcalls interface {
		Join(ids.HWGID) error
		Leave(ids.HWGID) error
		Send(ids.HWGID, Payload) error
		StopOk(ids.HWGID) error
	}
	var _ downcalls = (*Stack)(nil)
	var _ Upcalls = (*tUp)(nil)
}

func TestHeavyTrafficUnderChurn(t *testing.T) {
	// Stress: continuous traffic while members crash and partitions come
	// and go; view synchrony must hold throughout.
	w := newWorld(t, 6)
	for i := 0; i < 6; i++ {
		if err := w.stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)

	seq := 0
	tick := w.s.Every(20*time.Millisecond, func() {
		seq++
		sender := ids.ProcessID(seq % 6)
		if w.nw.Crashed(sender) {
			return
		}
		if w.stacks[sender].IsMember(g1) {
			_ = w.stacks[sender].Send(g1, tPayload{ID: fmt.Sprintf("s%d", seq), Size: 200})
		}
	})
	w.run(time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1, 2}, []netsim.NodeID{3, 4, 5})
	w.run(2 * time.Second)
	w.nw.Heal()
	w.run(2 * time.Second)
	w.nw.Crash(5)
	w.run(2 * time.Second)
	tick.Stop()
	w.run(3 * time.Second)

	w.requireSameView(g1, 0, 1, 2, 3, 4)
	checkViewSynchrony(t, w, g1)
}
