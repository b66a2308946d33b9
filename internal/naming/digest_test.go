package naming

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// srvWorld is a cluster of name servers only (no clients): the fixture
// for anti-entropy protocol tests. All nodes run a server. Started
// servers run a background round every syncInterval; tests that drive
// rounds by hand leave them unstarted so no background round mixes into
// the counts they isolate.
type srvWorld struct {
	t       testing.TB
	s       *sim.Sim
	nw      *netsim.Network
	servers []*Server
}

func newSrvWorld(t testing.TB, n int, cfg Config, start bool) *srvWorld {
	t.Helper()
	s := sim.New(7)
	nw := netsim.New(s, netsim.DefaultParams())
	w := &srvWorld{t: t, s: s, nw: nw}
	pids := make([]ids.ProcessID, n)
	for i := range pids {
		pids[i] = ids.ProcessID(i)
	}
	for _, pid := range pids {
		srv := NewServer(ServerParams{Net: nw, PID: pid, Peers: pids, Config: cfg})
		mux := netsim.NewMux()
		mux.Handle(ServerPrefix, srv.HandleMessage)
		nw.AddNode(pid, mux.Handler())
		if start {
			srv.Start()
		}
		w.servers = append(w.servers, srv)
	}
	return w
}

// converged reports whether every server stores the same database.
func (w *srvWorld) converged() bool {
	ref := w.servers[0].DB().All()
	for _, srv := range w.servers[1:] {
		if !reflect.DeepEqual(srv.DB().All(), ref) {
			return false
		}
	}
	return true
}

func (w *srvWorld) requireConverged() {
	w.t.Helper()
	if !w.converged() {
		w.t.Fatalf("servers did not converge:\n s0: %v\n s1: %v",
			w.servers[0].DB().All(), w.servers[1].DB().All())
	}
	h := w.servers[0].DB().Hash()
	for i, srv := range w.servers[1:] {
		if srv.DB().Hash() != h {
			w.t.Fatalf("server %d hash %x != server 0 hash %x", i+1, srv.DB().Hash(), h)
		}
	}
}

// randomEntry builds an arbitrary, internally consistent entry. Views of
// one coordinator form a chain, and the ancestor set of (c, s) is the
// full chain (c, 1..s-1): the protocol's contract is that Ancestors
// carries the complete transitive strict-ancestor set (a fixed function
// of the view), so ancestry knowledge survives garbage collection on
// every replica identically. Random, non-closed ancestor sets would make
// genealogies depend on which since-collected entries a replica saw.
func randomEntry(rng *rand.Rand) Entry {
	lwgs := []ids.LWGID{"alpha", "b", "group-with-a-long-name", "d7"}
	e := Entry{
		LWG:       lwgs[rng.Intn(len(lwgs))],
		View:      ids.ViewID{Coord: ids.ProcessID(rng.Intn(5)), Seq: uint64(rng.Intn(20)) + 1},
		HWG:       ids.HWGID(rng.Intn(4)) + 1,
		Ver:       uint64(rng.Intn(6)),
		Refreshed: rng.Int63n(1 << 40),
		Deleted:   rng.Intn(4) == 0,
	}
	if rng.Intn(2) == 0 {
		e.HWGView = ids.ViewID{Coord: e.View.Coord, Seq: uint64(rng.Intn(9)) + 1}
	}
	for s := uint64(1); s < e.View.Seq; s++ {
		e.Ancestors = append(e.Ancestors, ids.ViewID{Coord: e.View.Coord, Seq: s})
	}
	return e
}

// TestWireSizeMatchesEncoding pins Entry.wireSize to the length of the
// canonical encoding, so codec changes cannot silently skew the
// size-based network model and digest hashing.
func TestWireSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		e := randomEntry(rng)
		enc := appendEntry(nil, &e)
		if len(enc) != e.wireSize() {
			t.Fatalf("entry %+v: wireSize %d != encoded length %d", e, e.wireSize(), len(enc))
		}
	}
	// The degenerate entry too.
	var zero Entry
	if got := len(appendEntry(nil, &zero)); got != zero.wireSize() {
		t.Fatalf("zero entry: wireSize %d != encoded length %d", zero.wireSize(), got)
	}
}

func TestGenerationAndDigestInvalidation(t *testing.T) {
	db := NewDB()
	g0 := db.Generation()
	e := Entry{LWG: "a", View: vid(1, 1), HWG: 1, Ver: 1}
	if !db.Put(e) {
		t.Fatal("first put reported no change")
	}
	if db.Generation() == g0 {
		t.Fatal("put did not advance the generation")
	}
	d1, h1 := db.DigestOf("a"), db.Hash()
	g1 := db.Generation()
	// A no-op re-put must not move the generation or the summaries.
	if db.Put(e) {
		t.Fatal("re-put reported change")
	}
	if db.Generation() != g1 || db.DigestOf("a") != d1 || db.Hash() != h1 {
		t.Fatal("no-op put disturbed generation or digests")
	}
	// A real change must invalidate both caches.
	db.Put(Entry{LWG: "a", View: vid(1, 1), HWG: 2, Ver: 2})
	if db.Generation() == g1 {
		t.Fatal("update did not advance the generation")
	}
	if db.DigestOf("a") == d1 {
		t.Fatal("update did not change the group digest")
	}
	if db.Hash() == h1 {
		t.Fatal("update did not change the database hash")
	}
	// Unrelated groups keep their digests.
	db.Put(Entry{LWG: "b", View: vid(2, 1), HWG: 1, Ver: 1})
	da := db.DigestOf("a")
	db.Put(Entry{LWG: "b", View: vid(2, 1), HWG: 3, Ver: 2})
	if db.DigestOf("a") != da {
		t.Fatal("changing group b disturbed group a's digest")
	}
}

func TestDigestDiff(t *testing.T) {
	mk := func(lwg ids.LWGID, h uint64) LWGDigest {
		return LWGDigest{LWG: lwg, D: Digest{Count: 1, MaxVer: 1, Hash: h}}
	}
	ours := []LWGDigest{mk("a", 1), mk("b", 2), mk("d", 4)}
	theirs := []LWGDigest{mk("b", 2), mk("c", 3), mk("d", 9)}
	got := diffDigests(ours, theirs)
	want := []ids.LWGID{"a", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diffDigests = %v, want %v", got, want)
	}
	if diffDigests(nil, nil) != nil {
		t.Fatal("empty diff must be nil")
	}
}

// TestDigestSyncConverges seeds each server with distinct state and runs
// digest/delta anti-entropy until every replica stores the same database.
func TestDigestSyncConverges(t *testing.T) {
	w := newSrvWorld(t, 4, Config{MappingTTL: -1}, true)
	rng := rand.New(rand.NewSource(9))
	for i, srv := range w.servers {
		for j := 0; j < 10+i; j++ {
			srv.DB().Put(randomEntry(rng))
		}
	}
	w.s.RunFor(5 * time.Second)
	w.requireConverged()
	st := w.nw.Stats()
	if st.ByKind["naming-digest"] == 0 || st.ByKind["naming-delta"] == 0 {
		t.Fatalf("digest protocol not exercised: %v", st.ByKind)
	}
}

// TestIdleSkipSuppressesTraffic checks that converged, quiescent servers
// stop probing (up to the forced re-verification every maxIdleSkips).
func TestIdleSkipSuppressesTraffic(t *testing.T) {
	w := newSrvWorld(t, 2, Config{MappingTTL: -1}, true)
	w.servers[0].DB().Put(Entry{LWG: "a", View: vid(1, 1), HWG: 1, Ver: 1})
	w.s.RunFor(3 * time.Second)
	w.requireConverged()

	w.nw.ResetStats()
	for _, srv := range w.servers {
		srv.ResetSyncStats()
	}
	const rounds = 32 // per server, over ~9.6s
	w.s.RunFor(time.Duration(rounds) * syncInterval)
	st := w.nw.Stats()
	// Each forced probe (every maxIdleSkips rounds + 1) costs one
	// probe and one empty ack; everything else must be skipped.
	maxFrames := int64(2*(rounds/maxIdleSkips+2)) * 2 // both servers probe
	frames := st.ByKind["naming-digest"] + st.ByKind["naming-delta"]
	if frames > maxFrames {
		t.Fatalf("idle traffic %d frames exceeds bound %d (%v)", frames, maxFrames, st.ByKind)
	}
	skipped := w.servers[0].SyncStats()["skipped"] + w.servers[1].SyncStats()["skipped"]
	if skipped < int64(rounds) {
		t.Fatalf("only %d rounds skipped, want >= %d", skipped, rounds)
	}
}

// TestDeltaShipsOnlyChangedGroups converges two servers on many groups,
// changes one, and checks the next exchange ships exactly that group.
func TestDeltaShipsOnlyChangedGroups(t *testing.T) {
	// Unstarted: the test drives rounds by hand.
	w := newSrvWorld(t, 2, Config{MappingTTL: -1}, false)
	for i := 0; i < 50; i++ {
		e := Entry{
			LWG:  ids.LWGID(string(rune('a'+i%26)) + string(rune('a'+i/26))),
			View: vid(1, 1), HWG: 1, Ver: 1,
		}
		w.servers[0].DB().Put(e)
		w.servers[1].DB().Put(e)
	}
	w.servers[0].DB().Put(Entry{LWG: "aa", View: vid(1, 1), HWG: 2, Ver: 2})

	w.servers[0].antiEntropy()
	w.s.RunFor(time.Second)
	w.requireConverged()

	stats := w.servers[0].SyncStats()
	if got := stats["delta_groups"]; got != 1 {
		t.Fatalf("initiator shipped %d groups, want 1 (%v)", got, stats)
	}
	if got := stats["delta_entries"]; got != 1 {
		t.Fatalf("initiator shipped %d entries, want 1", got)
	}
	// The responder merged the newer entry and its digest now matches the
	// initiator's: no reverse delta content.
	if got := w.servers[1].SyncStats()["delta_groups"]; got != 0 {
		t.Fatalf("responder shipped %d groups back, want 0", got)
	}
}

// TestDigestVersionFallback: there is none. A digest message with an
// alien format version is outside input the server cannot interpret — it
// is dropped and counted, nothing of any kind is sent back, and the
// database is untouched.
func TestDigestVersionFallback(t *testing.T) {
	w := newSrvWorld(t, 2, Config{MappingTTL: -1}, false)
	w.servers[0].DB().Put(Entry{LWG: "a", View: vid(1, 1), HWG: 1, Ver: 1})
	w.servers[1].DB().Put(Entry{LWG: "b", View: vid(2, 1), HWG: 2, Ver: 1})
	before := w.servers[1].DB().All()

	for _, m := range []*msgDigest{
		{From: 0, Version: 99, DBHash: 12345},
		{From: 0, Version: 0, Reply: true, Digests: []LWGDigest{{LWG: "zz"}}},
	} {
		w.nw.ResetStats()
		w.servers[1].ResetSyncStats()
		w.nw.Unicast(0, 1, ServerPrefix, m)
		w.s.RunFor(time.Second)
		if got := w.servers[1].SyncStats()["version_mismatch"]; got != 1 {
			t.Fatalf("version %d: version_mismatch = %d, want 1", m.Version, got)
		}
		if st := w.nw.Stats(); st.Frames != 1 {
			t.Fatalf("version %d: %d frames on the wire, want only the alien digest (%v)",
				m.Version, st.Frames, st.ByKind)
		}
		if got := w.servers[1].DB().All(); !reflect.DeepEqual(got, before) {
			t.Fatalf("version %d: database changed: %v", m.Version, got)
		}
	}
}

// TestDirtySetConflictChecks verifies a merge re-examines only the
// groups it changed, not the whole database.
func TestDirtySetConflictChecks(t *testing.T) {
	w := newSrvWorld(t, 2, Config{MappingTTL: -1}, false)
	srv := w.servers[0]
	for i := 0; i < 40; i++ {
		srv.DB().Put(Entry{
			LWG:  ids.LWGID(string(rune('a' + i%26))),
			View: vid(1, uint64(i+1)), HWG: 1, Ver: 1,
		})
	}
	srv.ResetSyncStats()
	// A delta reply carrying one concurrent mapping for one group.
	srv.onDelta(&msgDelta{From: 1, Reply: true, Groups: []groupDelta{{
		LWG:     "a",
		Entries: []Entry{{LWG: "a", View: vid(3, 50), HWG: 9, Ver: 1}},
	}}})
	stats := srv.SyncStats()
	if got := stats["conflict_checks"]; got != 1 {
		t.Fatalf("conflict_checks = %d after single-group merge, want 1", got)
	}
	if got := stats["merge_changed"]; got != 1 {
		t.Fatalf("merge_changed = %d, want 1", got)
	}
}

// TestDigestHealConvergence partitions four servers, lets both sides
// diverge, heals, and requires full convergence under digest/delta sync.
func TestDigestHealConvergence(t *testing.T) {
	w := newSrvWorld(t, 4, Config{MappingTTL: -1}, true)
	w.s.RunFor(time.Second)
	w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		w.servers[i%2].DB().Put(randomEntry(rng))     // side A
		w.servers[2+(i%2)].DB().Put(randomEntry(rng)) // side B
	}
	w.s.RunFor(3 * time.Second)
	w.nw.Heal()
	w.s.RunFor(5 * time.Second)
	w.requireConverged()
}
