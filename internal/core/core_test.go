package core

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// cEntry is one upcall observed by a test process.
type cEntry struct {
	kind string // "view" | "data"
	view ids.View
	src  ids.ProcessID
	data string
	at   sim.Time
}

// cRec records LWG upcalls per group.
type cRec struct {
	s   *sim.Sim
	log map[ids.LWGID][]cEntry
}

func (r *cRec) View(lwg ids.LWGID, v ids.View) {
	r.log[lwg] = append(r.log[lwg], cEntry{kind: "view", view: v, at: r.s.Now()})
}

func (r *cRec) Data(lwg ids.LWGID, src ids.ProcessID, data []byte) {
	r.log[lwg] = append(r.log[lwg], cEntry{kind: "data", src: src, data: string(data), at: r.s.Now()})
}

func (r *cRec) dataOf(lwg ids.LWGID) []string {
	var out []string
	for _, e := range r.log[lwg] {
		if e.kind == "data" {
			out = append(out, e.data)
		}
	}
	return out
}

// cWorld is a full-stack test cluster: endpoints + naming servers.
type cWorld struct {
	t       *testing.T
	s       *sim.Sim
	nw      *netsim.Network
	eps     map[ids.ProcessID]*Endpoint
	ups     map[ids.ProcessID]*cRec
	servers map[ids.ProcessID]*naming.Server
	tracer  *trace.Recorder
	reg     *metrics.Registry
	// chaosMembers and chaosCrashed carry the expected end-state
	// membership and the crash set out of the chaos schedule
	// (chaos_test.go).
	chaosMembers map[ids.LWGID]map[ids.ProcessID]bool
	chaosCrashed map[ids.ProcessID]bool
}

func newCWorld(t *testing.T, n int, serverPids []ids.ProcessID, cfg Config) *cWorld {
	return newCWorldNS(t, n, serverPids, cfg, naming.Config{})
}

func newCWorldNS(t *testing.T, n int, serverPids []ids.ProcessID, cfg Config, nsCfg naming.Config) *cWorld {
	t.Helper()
	return buildCWorld(t, n, Params{Servers: serverPids, Config: cfg}, nsCfg, nil)
}

// buildCWorld builds n nodes from the Params template. Every node sends
// through wrap(network) when wrap is set, through the network itself
// otherwise.
func buildCWorld(t *testing.T, n int, p Params, nsCfg naming.Config, wrap func(*netsim.Network) netsim.Transport) *cWorld {
	s := sim.New(3)
	nw := netsim.New(s, netsim.DefaultParams())
	w := &cWorld{
		t: t, s: s, nw: nw,
		eps:     make(map[ids.ProcessID]*Endpoint),
		ups:     make(map[ids.ProcessID]*cRec),
		servers: make(map[ids.ProcessID]*naming.Server),
		tracer:  &trace.Recorder{},
		reg:     metrics.NewRegistry(),
	}
	p.Net, p.Tracer, p.Metrics = nw, w.tracer, w.reg
	if wrap != nil {
		p.Net = wrap(nw)
	}
	for i := 0; i < n; i++ {
		pid := ids.ProcessID(i)
		mux := netsim.NewMux()
		rec := &cRec{s: s, log: make(map[ids.LWGID][]cEntry)}
		p.PID, p.Upcalls = pid, rec
		ep, srv := NewNode(p, nsCfg, mux)
		if srv != nil {
			w.servers[pid] = srv
		}
		nw.AddNode(pid, mux.Handler())
		w.eps[pid] = ep
		w.ups[pid] = rec
	}
	return w
}

func (w *cWorld) run(d time.Duration) { w.s.RunFor(d) }

// runPolicyEverywhere triggers the mapping heuristics at every process in
// process order (message emission must be deterministic for replayable
// tests).
func (w *cWorld) runPolicyEverywhere() {
	for i := 0; i < len(w.eps); i++ {
		if ep, ok := w.eps[ids.ProcessID(i)]; ok {
			ep.RunPolicyNow()
		}
	}
}

func (w *cWorld) lwgView(pid ids.ProcessID, lwg ids.LWGID) ids.View {
	w.t.Helper()
	v, ok := w.eps[pid].LWGView(lwg)
	if !ok {
		w.t.Fatalf("%v has no view of %s\ntrace:\n%s", pid, lwg, w.tracer.Dump())
	}
	return v
}

// requireLWG asserts all pids share one view of the LWG with exactly
// those members, all mapped on the same HWG.
func (w *cWorld) requireLWG(lwg ids.LWGID, pids ...ids.ProcessID) (ids.View, ids.HWGID) {
	w.t.Helper()
	want := w.lwgView(pids[0], lwg)
	hwg, _ := w.eps[pids[0]].Mapping(lwg)
	for _, p := range pids[1:] {
		got := w.lwgView(p, lwg)
		if got.ID != want.ID {
			w.t.Fatalf("%s: %v has view %v, %v has view %v\ntrace:\n%s",
				lwg, p, got, pids[0], want, w.tracer.Dump())
		}
		h, _ := w.eps[p].Mapping(lwg)
		if h != hwg {
			w.t.Fatalf("%s: mapping differs: %v@%v vs %v@%v", lwg, p, h, pids[0], hwg)
		}
	}
	if !want.Members.Equal(ids.NewMembers(pids...)) {
		w.t.Fatalf("%s members = %v, want %v\ntrace:\n%s",
			lwg, want.Members, ids.NewMembers(pids...), w.tracer.Dump())
	}
	return want, hwg
}

func testCfg() Config {
	c := DefaultConfig()
	c.PolicyInterval = time.Hour // tests trigger policy explicitly
	return c
}

// --- tests -------------------------------------------------------------------

func TestCreateLWG(t *testing.T) {
	w := newCWorld(t, 2, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	v := w.lwgView(1, "a")
	if !v.Members.Equal(ids.NewMembers(1)) {
		t.Fatalf("founder view = %v", v)
	}
	if _, ok := w.eps[1].Mapping("a"); !ok {
		t.Fatal("no mapping after creation")
	}
	// The mapping must be registered with the naming service.
	if got := w.servers[0].DB().Live("a"); len(got) != 1 {
		t.Fatalf("naming entries = %v", got)
	}
}

func TestJoinExistingLWG(t *testing.T) {
	w := newCWorld(t, 3, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	if err := w.eps[2].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(3 * time.Second)
	w.requireLWG("a", 1, 2)
}

func TestDoubleJoinRejected(t *testing.T) {
	w := newCWorld(t, 2, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[1].Join("a"); err != ErrAlreadyMember {
		t.Fatalf("second Join = %v", err)
	}
	if err := w.eps[1].Send("b", nil); err != ErrNotMember {
		t.Fatalf("Send to unjoined = %v", err)
	}
}

func TestConcurrentCreatorsConverge(t *testing.T) {
	// Two processes create the same LWG simultaneously; ns.testset picks
	// one winner and the loser joins it.
	w := newCWorld(t, 3, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[2].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)
	if got := w.servers[0].DB().Live("a"); len(got) != 1 {
		t.Fatalf("naming kept %d live mappings, want 1: %v", len(got), got)
	}
}

func TestResourceSharingSameMembership(t *testing.T) {
	// Several LWGs created by the same processes share one HWG (the
	// optimistic creation-time mapping).
	w := newCWorld(t, 3, []ids.ProcessID{0}, testCfg())
	for _, lwg := range []ids.LWGID{"a1", "a2", "a3"} {
		if err := w.eps[1].Join(lwg); err != nil {
			t.Fatal(err)
		}
		// Stagger so each creation sees the previously created HWG (the
		// optimistic creation-time mapping; simultaneous creations are
		// collapsed later by the share rule — see TestShareRuleCollapse).
		w.run(time.Second)
	}
	w.run(2 * time.Second)
	for _, lwg := range []ids.LWGID{"a1", "a2", "a3"} {
		if err := w.eps[2].Join(lwg); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	h1, _ := w.eps[1].Mapping("a1")
	h2, _ := w.eps[1].Mapping("a2")
	h3, _ := w.eps[1].Mapping("a3")
	if h1 != h2 || h2 != h3 {
		t.Fatalf("LWGs with identical membership use different HWGs: %v %v %v", h1, h2, h3)
	}
	if got := len(w.eps[1].HWGs()); got != 1 {
		t.Fatalf("p1 is a member of %d HWGs, want 1", got)
	}
}

func TestShareRuleCollapse(t *testing.T) {
	// Two LWGs with identical membership created simultaneously land on
	// two distinct HWGs; the share rule collapses them into the one with
	// the higher identifier.
	w := newCWorld(t, 3, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := w.eps[1].Join("b"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	for _, lwg := range []ids.LWGID{"a", "b"} {
		if err := w.eps[2].Join(lwg); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	hA, _ := w.eps[1].Mapping("a")
	hB, _ := w.eps[1].Mapping("b")
	if hA == hB {
		t.Skip("creations landed on one HWG; nothing to collapse")
	}
	w.runPolicyEverywhere()
	w.run(4 * time.Second)
	hA2, _ := w.eps[1].Mapping("a")
	hB2, _ := w.eps[1].Mapping("b")
	if hA2 != hB2 {
		t.Fatalf("share rule did not collapse: a@%v b@%v\ntrace:\n%s",
			hA2, hB2, w.tracer.Dump())
	}
	want := hA
	if hB > hA {
		want = hB
	}
	if hA2 != want {
		t.Errorf("collapsed into %v, want the higher gid %v", hA2, want)
	}
	w.requireLWG("a", 1, 2)
	w.requireLWG("b", 1, 2)
}

func TestDataDelivery(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.eps[3].Join("b"); err != nil {
		t.Fatal(err)
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2)
	if err := w.eps[1].Send("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	w.run(time.Second)
	for _, p := range []ids.ProcessID{1, 2} {
		if got := w.ups[p].dataOf("a"); len(got) != 1 || got[0] != "hello" {
			t.Errorf("%v delivered %v, want [hello]", p, got)
		}
	}
	// The non-member must see nothing of LWG a.
	if got := w.ups[3].dataOf("a"); len(got) != 0 {
		t.Errorf("non-member delivered %v", got)
	}
}

func TestLeave(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.requireLWG("a", 1, 2, 3)
	if err := w.eps[3].Leave("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireLWG("a", 1, 2)
	if _, ok := w.eps[3].LWGView("a"); ok {
		t.Error("leaver still has a view")
	}
}

func TestCoordinatorLeave(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	if !w.eps[1].IsLWGCoordinator("a") {
		t.Fatal("p1 should coordinate")
	}
	if err := w.eps[1].Leave("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	w.requireLWG("a", 2, 3)
	if !w.eps[2].IsLWGCoordinator("a") {
		t.Error("p2 should take over coordination")
	}
}

func TestLastLeaveDissolves(t *testing.T) {
	w := newCWorld(t, 2, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	if err := w.eps[1].Leave("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	if got := w.servers[0].DB().Live("a"); len(got) != 0 {
		t.Fatalf("mapping not deleted: %v", got)
	}
}

func TestCrashTrimsLWGView(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.nw.Crash(3)
	w.run(3 * time.Second)
	w.requireLWG("a", 1, 2)
}

func TestSendsBufferedAcrossRecovery(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	w.nw.Crash(3)
	// Send while recovery is in flight: the message must eventually reach
	// the survivors.
	w.s.After(400*time.Millisecond, func() {
		_ = w.eps[1].Send("a", []byte("mid-recovery"))
	})
	w.run(4 * time.Second)
	for _, p := range []ids.ProcessID{1, 2} {
		found := false
		for _, d := range w.ups[p].dataOf("a") {
			if d == "mid-recovery" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v missed the mid-recovery message: %v", p, w.ups[p].dataOf("a"))
		}
	}
}

func TestPartitionSplitsLWG(t *testing.T) {
	w := newCWorld(t, 8, []ids.ProcessID{0, 4}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 5, 6} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.requireLWG("a", 1, 2, 5, 6)

	w.nw.SetPartitions([]netsim.NodeID{0, 1, 2, 3}, []netsim.NodeID{4, 5, 6, 7})
	w.run(4 * time.Second)
	va := w.lwgView(1, "a")
	vb := w.lwgView(5, "a")
	if !va.Members.Equal(ids.NewMembers(1, 2)) {
		t.Errorf("side A members = %v", va.Members)
	}
	if !vb.Members.Equal(ids.NewMembers(5, 6)) {
		t.Errorf("side B members = %v", vb.Members)
	}
	if va.ID == vb.ID {
		t.Error("concurrent LWG views must differ")
	}
	// Both sides keep working.
	_ = w.eps[1].Send("a", []byte("A"))
	_ = w.eps[5].Send("a", []byte("B"))
	w.run(time.Second)
	if got := w.ups[2].dataOf("a"); len(got) != 1 || got[0] != "A" {
		t.Errorf("side A delivery = %v", got)
	}
	if got := w.ups[6].dataOf("a"); len(got) != 1 || got[0] != "B" {
		t.Errorf("side B delivery = %v", got)
	}
}

func TestHealMergesLWGSameMapping(t *testing.T) {
	// Steps 3–4 only: both sides kept the same HWG mapping, so after the
	// HWG merges, local peer discovery and the merge-views protocol
	// rebuild a single LWG view.
	w := newCWorld(t, 8, []ids.ProcessID{0, 4}, testCfg())
	for _, p := range []ids.ProcessID{1, 2, 5, 6} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1, 2, 3}, []netsim.NodeID{4, 5, 6, 7})
	w.run(4 * time.Second)
	w.nw.Heal()
	w.run(6 * time.Second)
	w.requireLWG("a", 1, 2, 5, 6)
	// The naming service must converge to exactly one live mapping.
	for _, srv := range w.servers {
		if got := srv.DB().Live("a"); len(got) != 1 {
			t.Errorf("server %v: %d live mappings, want 1:\n%s",
				srv.PID(), len(got), srv.DB().Dump())
		}
	}
}

func TestPartitionedCreationThenHeal(t *testing.T) {
	// The full Table 3 → Table 4 scenario: the LWG is created
	// independently in two partitions, mapped onto different HWGs. After
	// the heal the naming service reconciles (Step 1), the coordinators
	// switch to the highest-gid HWG (Step 2), the concurrent views
	// discover each other on the shared HWG (Step 3) and merge (Step 4).
	w := newCWorld(t, 8, []ids.ProcessID{0, 4}, testCfg())
	w.nw.SetPartitions([]netsim.NodeID{0, 1, 2, 3}, []netsim.NodeID{4, 5, 6, 7})
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []ids.ProcessID{5, 6} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(5 * time.Second)
	hA, _ := w.eps[1].Mapping("a")
	hB, _ := w.eps[5].Mapping("a")
	if hA == hB {
		t.Fatalf("partitioned creations should map onto different HWGs (got %v both)", hA)
	}

	w.nw.Heal()
	w.run(10 * time.Second)

	_, hwg := w.requireLWG("a", 1, 2, 5, 6)
	want := hA
	if hB > hA {
		want = hB
	}
	if hwg != want {
		t.Errorf("reconciled mapping = %v, want the higher gid %v (§6.2)", hwg, want)
	}
	for _, srv := range w.servers {
		if got := srv.DB().Live("a"); len(got) != 1 {
			t.Errorf("server %v: %d live mappings, want 1:\n%s",
				srv.PID(), len(got), srv.DB().Dump())
		}
	}
	// Traffic flows in the merged group.
	_ = w.eps[1].Send("a", []byte("merged"))
	w.run(time.Second)
	for _, p := range []ids.ProcessID{2, 5, 6} {
		found := false
		for _, d := range w.ups[p].dataOf("a") {
			if d == "merged" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v did not deliver post-merge traffic", p)
		}
	}
}

func TestInterferenceRuleSwitch(t *testing.T) {
	// A small LWG stuck on a big HWG must switch off it when the policy
	// runs (Figure 1, interference rule).
	w := newCWorld(t, 10, []ids.ProcessID{0}, testCfg())
	// Build a big LWG (8 members) and a small one (2 members) that the
	// creation-time optimism maps onto the same HWG.
	var big []ids.ProcessID
	for i := 1; i <= 8; i++ {
		big = append(big, ids.ProcessID(i))
	}
	for _, p := range big {
		if err := w.eps[p].Join("big"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	w.requireLWG("big", big...)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("small"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	hBig, _ := w.eps[1].Mapping("big")
	hSmall, _ := w.eps[1].Mapping("small")
	if hBig != hSmall {
		t.Skipf("creation-time mapping did not co-locate (big=%v small=%v)", hBig, hSmall)
	}
	// Run the heuristics everywhere (the paper runs them periodically).
	w.runPolicyEverywhere()
	w.run(4 * time.Second)
	hSmall2, _ := w.eps[1].Mapping("small")
	if hSmall2 == hBig {
		t.Fatalf("interference rule did not switch the minority LWG\ntrace:\n%s", w.tracer.Dump())
	}
	w.requireLWG("small", 1, 2)
	hv, ok := w.eps[1].HWGStack().CurrentView(hSmall2)
	if !ok || !hv.Members.Equal(ids.NewMembers(1, 2)) {
		t.Errorf("new HWG membership = %v, want {p1,p2}", hv.Members)
	}
}

func TestShrinkRuleLeavesEmptyHWG(t *testing.T) {
	w := newCWorld(t, 4, []ids.ProcessID{0}, testCfg())
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("a"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	hwg, _ := w.eps[1].Mapping("a")
	// Everyone leaves the LWG; the HWG is now useless.
	_ = w.eps[1].Leave("a")
	_ = w.eps[2].Leave("a")
	w.run(2 * time.Second)
	w.runPolicyEverywhere()
	w.run(shrinkAfter)
	w.runPolicyEverywhere() // second pass: past shrinkAfter
	w.run(2 * time.Second)
	for _, p := range []ids.ProcessID{1, 2} {
		for _, g := range w.eps[p].HWGs() {
			if g == hwg {
				t.Errorf("%v still member of shrunk HWG %v", p, hwg)
			}
		}
	}
}

func TestForwardPointerRedirectsJoiner(t *testing.T) {
	// A LWG switches HWGs; a joiner holding the stale mapping must be
	// redirected by the forward pointer (Section 3.1).
	w := newCWorld(t, 10, []ids.ProcessID{0}, testCfg())
	var big []ids.ProcessID
	for i := 1; i <= 8; i++ {
		big = append(big, ids.ProcessID(i))
	}
	for _, p := range big {
		if err := w.eps[p].Join("big"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(6 * time.Second)
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.eps[p].Join("small"); err != nil {
			t.Fatal(err)
		}
	}
	w.run(4 * time.Second)
	hBig, _ := w.eps[1].Mapping("big")
	hSmall, _ := w.eps[1].Mapping("small")
	if hBig != hSmall {
		t.Skip("creation-time mapping did not co-locate")
	}
	// Crash the naming server so the stale mapping cannot be refreshed;
	// the joiner must rely on the forward pointer... actually keep the
	// server but freeze its knowledge by joining immediately after the
	// switch, before the coordinator's update propagates.
	w.runPolicyEverywhere()
	w.run(100 * time.Millisecond) // switch underway, naming may be stale
	if err := w.eps[3].Join("small"); err != nil {
		t.Fatal(err)
	}
	w.run(6 * time.Second)
	w.requireLWG("small", 1, 2, 3)
}

func TestDeterministicFullStack(t *testing.T) {
	runOnce := func() string {
		w := newCWorld(t, 8, []ids.ProcessID{0, 4}, testCfg())
		w.nw.SetPartitions([]netsim.NodeID{0, 1, 2, 3}, []netsim.NodeID{4, 5, 6, 7})
		for _, p := range []ids.ProcessID{1, 2, 5, 6} {
			_ = w.eps[p].Join("a")
		}
		w.run(5 * time.Second)
		w.nw.Heal()
		w.run(8 * time.Second)
		var out string
		for _, p := range []ids.ProcessID{1, 2, 5, 6} {
			v, _ := w.eps[p].LWGView("a")
			h, _ := w.eps[p].Mapping("a")
			out += fmt.Sprintf("%v:%v@%v;", p, v, h)
		}
		return out
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("nondeterministic full-stack run:\n%s\nvs\n%s", a, b)
	}
}
