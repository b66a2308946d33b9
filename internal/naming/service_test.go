package naming

import (
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// nsWorld is a network with name servers on some nodes and clients on
// all, plus recorders for MULTIPLE-MAPPINGS callbacks.
type nsWorld struct {
	t         *testing.T
	s         *sim.Sim
	nw        *netsim.Network
	servers   map[ids.ProcessID]*Server
	clients   map[ids.ProcessID]*Client
	callbacks map[ids.ProcessID][]*MsgMultipleMappings
}

func newNSWorld(t *testing.T, nodes int, serverPids []ids.ProcessID) *nsWorld {
	t.Helper()
	s := sim.New(2)
	nw := netsim.New(s, netsim.DefaultParams())
	w := &nsWorld{
		t: t, s: s, nw: nw,
		servers:   make(map[ids.ProcessID]*Server),
		clients:   make(map[ids.ProcessID]*Client),
		callbacks: make(map[ids.ProcessID][]*MsgMultipleMappings),
	}
	for i := 0; i < nodes; i++ {
		pid := ids.ProcessID(i)
		mux := netsim.NewMux()
		cl := NewClient(ClientParams{Net: nw, PID: pid, Servers: serverPids})
		mux.Handle(ClientPrefix, cl.HandleMessage)
		mux.Handle(CallbackPrefix, func(pid ids.ProcessID) netsim.Handler {
			return func(_ netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
				if m, ok := msg.(*MsgMultipleMappings); ok {
					w.callbacks[pid] = append(w.callbacks[pid], m)
				}
			}
		}(pid))
		for _, sp := range serverPids {
			if sp == pid {
				srv := NewServer(ServerParams{Net: nw, PID: pid, Peers: serverPids})
				mux.Handle(ServerPrefix, srv.HandleMessage)
				srv.Start()
				w.servers[pid] = srv
			}
		}
		nw.AddNode(pid, mux.Handler())
		w.clients[pid] = cl
	}
	return w
}

func TestClientSetRead(t *testing.T) {
	w := newNSWorld(t, 4, []ids.ProcessID{0})
	var ok bool
	w.clients[1].SetView(Entry{LWG: "a", View: vid(1, 1), HWG: 7, Ver: 1},
		func(_ []Entry, o bool) { ok = o })
	w.s.RunFor(time.Second)
	if !ok {
		t.Fatal("SetView did not complete")
	}
	var got ids.HWGID
	w.clients[2].ReadLive("a", func(entries []Entry, o bool) {
		if o {
			got = PreferredHWG(entries)
		}
	})
	w.s.RunFor(time.Second)
	if got != 7 {
		t.Fatalf("ReadLive maps a onto %v, want 7", got)
	}
}

func TestReadUnknownLWG(t *testing.T) {
	w := newNSWorld(t, 2, []ids.ProcessID{0})
	called := false
	w.clients[1].ReadLive("nope", func(entries []Entry, o bool) {
		called = true
		if o && len(entries) > 0 {
			t.Errorf("ReadLive of unknown LWG reported mappings %v", entries)
		}
	})
	w.s.RunFor(time.Second)
	if !called {
		t.Fatal("callback never ran")
	}
}

func TestTestSetAtomicity(t *testing.T) {
	// Two processes race to create the same LWG against the same server:
	// exactly one mapping wins and both observe it.
	w := newNSWorld(t, 4, []ids.ProcessID{0})
	var got1, got2 ids.HWGID
	w.clients[1].TestSet(Entry{LWG: "a", View: vid(1, 1), HWG: 10, Ver: 1}, func(entries []Entry, ok bool) {
		if ok {
			got1 = PreferredHWG(entries)
		}
	})
	w.clients[2].TestSet(Entry{LWG: "a", View: vid(2, 1), HWG: 20, Ver: 1}, func(entries []Entry, ok bool) {
		if ok {
			got2 = PreferredHWG(entries)
		}
	})
	w.s.RunFor(time.Second)
	if got1 != got2 {
		t.Fatalf("TestSet not atomic: %v vs %v", got1, got2)
	}
	if got1 != 10 && got1 != 20 {
		t.Fatalf("winner %v is neither proposal", got1)
	}
}

func TestFailoverToSecondServer(t *testing.T) {
	w := newNSWorld(t, 4, []ids.ProcessID{0, 1})
	w.nw.Crash(0)
	var ok bool
	// Client 0's preferred server is pid 0 (crashed); it must fail over.
	w.clients[2].SetView(Entry{LWG: "a", View: vid(2, 1), HWG: 3, Ver: 1},
		func(_ []Entry, o bool) { ok = o })
	w.s.RunFor(2 * time.Second)
	if !ok {
		t.Fatal("client did not fail over to the live server")
	}
}

func TestAllServersUnreachable(t *testing.T) {
	w := newNSWorld(t, 4, []ids.ProcessID{0, 1})
	w.nw.Crash(0)
	w.nw.Crash(1)
	done, ok := false, true
	w.clients[2].ReadLive("a", func(_ []Entry, o bool) { done, ok = true, o })
	// The client now retries with backoff for several rounds before
	// giving up, so allow the full retry budget to elapse.
	w.s.RunFor(10 * time.Second)
	if !done {
		t.Fatal("request never completed")
	}
	if ok {
		t.Fatal("request reported success with no reachable server")
	}
}

func TestAntiEntropyPropagation(t *testing.T) {
	w := newNSWorld(t, 4, []ids.ProcessID{0, 1})
	w.clients[0].SetView(Entry{LWG: "a", View: vid(1, 1), HWG: 9, Ver: 1}, func([]Entry, bool) {})
	w.s.RunFor(2 * time.Second) // several sync rounds
	if got := w.servers[1].DB().Live("a"); len(got) != 1 || got[0].HWG != 9 {
		t.Fatalf("server 1 did not learn the mapping: %v", got)
	}
}

func TestPartitionReconciliationAndCallback(t *testing.T) {
	// The Table 3 scenario over the wire: servers on nodes 0 and 4,
	// partition {0..3} | {4..7}; each side maps the same LWG onto a
	// different HWG. After the heal the servers reconcile, detect the
	// conflict, and notify the coordinators of both views.
	w := newNSWorld(t, 8, []ids.ProcessID{0, 4})
	w.nw.SetPartitions(
		[]netsim.NodeID{0, 1, 2, 3},
		[]netsim.NodeID{4, 5, 6, 7},
	)
	// Side p: view coordinated by p1 mapped on hwg1 (server 0).
	w.clients[1].SetView(Entry{LWG: "a", View: vid(1, 2), HWG: 1, Ver: 1}, func([]Entry, bool) {})
	// Side p': view coordinated by p5 mapped on hwg2 (server 4).
	w.clients[5].SetView(Entry{LWG: "a", View: vid(5, 1), HWG: 2, Ver: 1}, func([]Entry, bool) {})
	w.s.RunFor(2 * time.Second)

	// No callbacks while partitioned: each server sees one mapping.
	if len(w.callbacks[1]) != 0 || len(w.callbacks[5]) != 0 {
		t.Fatal("callback fired before any conflict was observable")
	}

	w.nw.Heal()
	w.s.RunFor(3 * time.Second)

	for _, srv := range w.servers {
		if got := len(srv.DB().Live("a")); got != 2 {
			t.Errorf("server %v has %d live mappings, want 2", srv.PID(), got)
		}
		if !srv.DB().Conflict("a") {
			t.Errorf("server %v does not flag the conflict", srv.PID())
		}
	}
	for _, coord := range []ids.ProcessID{1, 5} {
		if len(w.callbacks[coord]) == 0 {
			t.Errorf("coordinator %v received no MULTIPLE-MAPPINGS callback", coord)
			continue
		}
		cb := w.callbacks[coord][0]
		if cb.LWG != "a" || len(cb.Mappings) != 2 {
			t.Errorf("callback at %v = %+v", coord, cb)
		}
	}
}

func TestGCPropagatesAcrossServers(t *testing.T) {
	// After the merged view's mapping is written to one server,
	// anti-entropy must delete the ancestor mappings on the other.
	w := newNSWorld(t, 4, []ids.ProcessID{0, 1})
	left, right, merged := vid(1, 2), vid(2, 1), vid(1, 3)
	w.clients[0].SetView(Entry{LWG: "a", View: left, HWG: 1, Ver: 1}, func([]Entry, bool) {})
	w.clients[1].SetView(Entry{LWG: "a", View: right, HWG: 2, Ver: 1}, func([]Entry, bool) {})
	w.s.RunFor(2 * time.Second)
	w.clients[2].SetView(Entry{
		LWG: "a", View: merged, HWG: 2, Ver: 1, Ancestors: ids.ViewIDs{left, right},
	}, func([]Entry, bool) {})
	w.s.RunFor(2 * time.Second)
	for pid, srv := range w.servers {
		live := srv.DB().Live("a")
		if len(live) != 1 || live[0].View != merged {
			t.Errorf("server %v: live = %v, want only the merged view", pid, live)
		}
	}
}

func TestConflictClearedStopsCallbacks(t *testing.T) {
	w := newNSWorld(t, 4, []ids.ProcessID{0})
	left, right := vid(1, 2), vid(2, 1)
	w.clients[1].SetView(Entry{LWG: "a", View: left, HWG: 1, Ver: 1}, func([]Entry, bool) {})
	w.clients[2].SetView(Entry{LWG: "a", View: right, HWG: 2, Ver: 1}, func([]Entry, bool) {})
	w.s.RunFor(time.Second)
	if len(w.callbacks[1]) == 0 {
		t.Fatal("conflict callback expected")
	}
	// Resolve: re-map the left view onto hwg2 (the §6.2 rule).
	w.clients[1].SetView(Entry{LWG: "a", View: left, HWG: 2, Ver: 2}, func([]Entry, bool) {})
	w.s.RunFor(time.Second)
	n := len(w.callbacks[1])
	w.s.RunFor(3 * time.Second)
	if len(w.callbacks[1]) != n {
		t.Errorf("callbacks kept firing after the conflict was resolved (%d -> %d)",
			n, len(w.callbacks[1]))
	}
}

func TestLeaseExpiryCollectsDeadMappings(t *testing.T) {
	// A mapping written by a view whose members all crashed has no
	// descendant to supersede it; the lease mechanism must collect it.
	s := sim.New(1)
	nw := netsim.New(s, netsim.DefaultParams())
	srv := NewServer(ServerParams{
		Net: nw, PID: 0, Peers: []ids.ProcessID{0},
		Config: Config{MappingTTL: 2 * time.Second},
	})
	mux := netsim.NewMux()
	mux.Handle(ServerPrefix, srv.HandleMessage)
	nw.AddNode(0, mux.Handler())
	srv.Start()

	dead := Entry{LWG: "a", View: vid(9, 1), HWG: 1, Ver: 1, Refreshed: int64(s.Now())}
	srv.DB().Put(dead)
	s.RunFor(time.Second)
	if len(srv.DB().Live("a")) != 1 {
		t.Fatal("mapping expired before its TTL")
	}
	s.RunFor(3 * time.Second)
	if got := srv.DB().Live("a"); len(got) != 0 {
		t.Fatalf("dead mapping not collected: %v", got)
	}
}

func TestLeaseRefreshKeepsMappingAlive(t *testing.T) {
	s := sim.New(1)
	nw := netsim.New(s, netsim.DefaultParams())
	srv := NewServer(ServerParams{
		Net: nw, PID: 0, Peers: []ids.ProcessID{0},
		Config: Config{MappingTTL: 2 * time.Second},
	})
	mux := netsim.NewMux()
	mux.Handle(ServerPrefix, srv.HandleMessage)
	nw.AddNode(0, mux.Handler())
	srv.Start()

	ver := uint64(0)
	refresh := s.Every(500*time.Millisecond, func() {
		ver++
		srv.DB().Put(Entry{LWG: "a", View: vid(1, 1), HWG: 1, Ver: ver, Refreshed: int64(s.Now())})
	})
	s.RunFor(10 * time.Second)
	refresh.Stop()
	if got := srv.DB().Live("a"); len(got) != 1 {
		t.Fatalf("refreshed mapping expired: %v", got)
	}
	// Once refreshes stop, the lease lapses.
	s.RunFor(5 * time.Second)
	if got := srv.DB().Live("a"); len(got) != 0 {
		t.Fatalf("lapsed mapping survived: %v", got)
	}
}

func TestExpireDisabledByDefaultZero(t *testing.T) {
	db := NewDB()
	db.Put(Entry{LWG: "a", View: vid(1, 1), HWG: 1, Ver: 1})
	if dirty := db.Expire(int64(time.Hour), 0); len(dirty) != 0 {
		t.Fatal("ttl=0 must disable expiry")
	}
	if len(db.Live("a")) != 1 {
		t.Fatal("entry vanished with expiry disabled")
	}
}

func TestTable2Interface(t *testing.T) {
	// Experiment E2: the service exports Table 2's three primitives —
	// ns.set, ns.read, ns.testset — in their partitionable,
	// view-to-view form (§5.2), asynchronously: a mapping names the LWG
	// view it belongs to, and a read returns every live mapping.
	type table2 interface {
		SetView(Entry, func([]Entry, bool))
		ReadLive(ids.LWGID, func([]Entry, bool))
		TestSet(Entry, func([]Entry, bool))
	}
	var _ table2 = (*Client)(nil)

	// And they behave per the table.
	w := newNSWorld(t, 3, []ids.ProcessID{0})
	answered := 0
	w.clients[1].SetView(Entry{LWG: "subject", View: vid(1, 1), HWG: 42, Ver: 1}, func(_ []Entry, ok bool) {
		answered++
		if !ok {
			t.Error("ns.set failed")
		}
	})
	w.s.RunFor(time.Second)
	w.clients[2].ReadLive("subject", func(entries []Entry, ok bool) {
		answered++
		if h := PreferredHWG(entries); !ok || h != 42 {
			t.Errorf("ns.read = %v/%v, want 42/true", h, ok)
		}
	})
	w.s.RunFor(time.Second)
	// testset of another view finds the mapping and installs nothing.
	w.clients[2].TestSet(Entry{LWG: "subject", View: vid(2, 1), HWG: 7, Ver: 1}, func(entries []Entry, ok bool) {
		answered++
		if !ok || len(entries) != 1 || entries[0].HWG != 42 {
			t.Errorf("ns.testset = %v/%v, want the one mapping onto 42", entries, ok)
		}
	})
	w.s.RunFor(time.Second)
	if answered != 3 {
		t.Fatalf("%d of 3 primitives answered", answered)
	}
}
