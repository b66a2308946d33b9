package rtnet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
)

// collector receives upcalls (on the driver loop) and hands them to the
// test goroutine.
type collector struct {
	mu    sync.Mutex
	views []ids.View
	data  []string
}

func (c *collector) View(_ ids.LWGID, v ids.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views = append(c.views, v.Clone())
}

func (c *collector) Data(_ ids.LWGID, src ids.ProcessID, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data = append(c.data, fmt.Sprintf("%v:%s", src, data))
}

func (c *collector) lastView() (ids.View, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		return ids.View{}, false
	}
	return c.views[len(c.views)-1], true
}

func (c *collector) dataCopy() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.data...)
}

// startCluster boots n nodes over real UDP on loopback with ephemeral
// ports.
func startCluster(t *testing.T, n int, servers []ids.ProcessID) ([]*Node, []*collector) {
	t.Helper()
	nodes := make([]*Node, n)
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		cols[i] = &collector{}
		node, err := Listen(NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: servers,
			Upcalls:     cols[i],
			Seed:        int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	peers := make(map[ids.ProcessID]string, n)
	for i, node := range nodes {
		peers[ids.ProcessID(i)] = node.Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes, cols
}

// TestStartRejectsRepeatedNameServer: a node listed twice would host two
// naming servers and appear twice in every peer list. Start refuses, and
// the never-started node still closes.
func TestStartRejectsRepeatedNameServer(t *testing.T) {
	node, err := Listen(NodeConfig{PID: 1, Listen: "127.0.0.1:0", NameServers: []ids.ProcessID{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err, want := node.Start(), "name server p1 listed twice"; err == nil || err.Error() != want {
		t.Fatalf("Start = %v, want %q", err, want)
	}
}

// eventually polls cond (on the test goroutine) until it holds or the
// real-time deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// TestUDPClusterEndToEnd runs the full stack — vsync, naming, LWG service
// — over real UDP sockets on loopback: join, converge, multicast, and
// recover from a (process-level) crash.
func TestUDPClusterEndToEnd(t *testing.T) {
	nodes, cols := startCluster(t, 3, []ids.ProcessID{0})

	for i := 0; i < 3; i++ {
		nodes[i].Do(func(ep *core.Endpoint) {
			if err := ep.Join("live"); err != nil {
				t.Errorf("join at %d: %v", i, err)
			}
		})
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
	}, "membership did not converge over UDP")

	nodes[1].Do(func(ep *core.Endpoint) {
		if err := ep.Send("live", []byte("over-the-wire")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	eventually(t, 10*time.Second, func() bool {
		for _, c := range []*collector{cols[0], cols[2]} {
			found := false
			for _, d := range c.dataCopy() {
				if d == "p1:over-the-wire" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, "multicast not delivered over UDP")

	// Kill node 2's process (close socket and loop): the survivors'
	// failure detectors must trim the view.
	nodes[2].Close()
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1))
	}, "view did not recover from the process crash")
}

// TestUDPLeave exercises the leave path over the real transport.
func TestUDPLeave(t *testing.T) {
	nodes, cols := startCluster(t, 2, []ids.ProcessID{0})
	for i := 0; i < 2; i++ {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("g") })
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && len(v.Members) == 2
	}, "no convergence")
	nodes[1].Do(func(ep *core.Endpoint) { _ = ep.Leave("g") })
	eventually(t, 10*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0))
	}, "leave did not shrink the view")
}

// blockLinks cuts n's outgoing links to the given peers; blocking both
// sides of each link partitions them symmetrically.
func blockLinks(n *Node, peers ...ids.ProcessID) {
	for _, p := range peers {
		n.SetLinkFault(p, &faults.Rule{Block: true})
	}
}

// TestUDPPartitionAndHeal runs the paper's headline scenario over real
// UDP sockets: a partition splits the group, both sides keep operating
// with concurrent views, and the heal merges them back.
func TestUDPPartitionAndHeal(t *testing.T) {
	nodes, cols := startCluster(t, 4, []ids.ProcessID{0, 2})
	for i := 0; i < 4; i++ {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("g") })
	}
	eventually(t, 20*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && len(v.Members) == 4
	}, "initial convergence")

	// Partition {0,1} | {2,3}.
	blockLinks(nodes[0], 2, 3)
	blockLinks(nodes[1], 2, 3)
	blockLinks(nodes[2], 0, 1)
	blockLinks(nodes[3], 0, 1)
	eventually(t, 20*time.Second, func() bool {
		vA, okA := cols[0].lastView()
		vB, okB := cols[2].lastView()
		return okA && okB &&
			vA.Members.Equal(ids.NewMembers(0, 1)) &&
			vB.Members.Equal(ids.NewMembers(2, 3))
	}, "views did not split")

	// Both sides make progress.
	nodes[0].Do(func(ep *core.Endpoint) { _ = ep.Send("g", []byte("A")) })
	nodes[2].Do(func(ep *core.Endpoint) { _ = ep.Send("g", []byte("B")) })

	// Heal.
	for _, n := range nodes {
		n.SetFaults(nil)
	}
	eventually(t, 30*time.Second, func() bool {
		vA, okA := cols[0].lastView()
		vB, okB := cols[2].lastView()
		return okA && okB && vA.ID == vB.ID && len(vA.Members) == 4
	}, "views did not merge after the heal")
}

// TestDriverDoFromManyGoroutines hammers Do concurrently; the loop must
// serialize everything without races (run with -race) and run each
// submitter's functions in the order it submitted them.
func TestDriverDoFromManyGoroutines(t *testing.T) {
	d := NewDriver(1)
	d.Start()
	defer d.Close()
	const submitters, perSubmitter = 8, 200
	ran := make([][]int, submitters) // loop-confined
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				d.Do(func() { ran[g] = append(ran[g], i) })
			}
		}()
	}
	wg.Wait()
	d.Call(func() {
		for g, seqs := range ran {
			if len(seqs) != perSubmitter {
				t.Errorf("submitter %d: %d of %d functions ran", g, len(seqs), perSubmitter)
				continue
			}
			for i, v := range seqs {
				if v != i {
					t.Errorf("submitter %d: position %d ran its function %d (FIFO violated)", g, i, v)
					break
				}
			}
		}
	})
}

// TestDriverTimerFiresInRealTime checks wall-clock timer semantics.
func TestDriverTimerFiresInRealTime(t *testing.T) {
	d := NewDriver(1)
	fired := make(chan time.Time, 1)
	start := time.Now()
	d.Do(func() {
		d.Sim().After(150*time.Millisecond, func() {
			fired <- time.Now()
		})
	})
	d.Start()
	defer d.Close()
	select {
	case at := <-fired:
		elapsed := at.Sub(start)
		if elapsed < 120*time.Millisecond {
			t.Errorf("timer fired too early: %v", elapsed)
		}
		if elapsed > 2*time.Second {
			t.Errorf("timer fired far too late: %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestCallAfterCloseReturns: once the loop has exited nothing drains the
// inbox, so Driver.Call, Node.Do and what is built on them — the naming
// snapshot and the /debug/lwg handler — return without running their
// function instead of waiting forever.
func TestCallAfterCloseReturns(t *testing.T) {
	d := NewDriver(1)
	d.Start()
	d.Close()
	nodes, _ := startCluster(t, 1, []ids.ProcessID{0})
	n := nodes[0]
	n.Close()

	calls := map[string]func(){
		"Driver.Call": func() { d.Call(func() { t.Error("Driver.Call ran its function after Close") }) },
		"Node.Do":     func() { n.Do(func(*core.Endpoint) { t.Error("Node.Do ran its function after Close") }) },
		"NamingDBSnapshot": func() {
			if db := n.NamingDBSnapshot(); db != nil {
				t.Error("NamingDBSnapshot after Close returned a database")
			}
		},
		"/debug/lwg": func() {
			rec := httptest.NewRecorder()
			n.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/lwg", nil))
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("/debug/lwg after Close: status %d, want %d", rec.Code, http.StatusServiceUnavailable)
			}
		},
	}
	returned := make(chan string, len(calls))
	for name, call := range calls {
		go func() {
			call()
			returned <- name
		}()
	}
	deadline := time.After(time.Second)
	for len(calls) > 0 {
		select {
		case name := <-returned:
			delete(calls, name)
		case <-deadline:
			var blocked []string
			for name := range calls {
				blocked = append(blocked, name)
			}
			sort.Strings(blocked)
			t.Fatalf("still blocked 1 s after Close: %v", blocked)
		}
	}
}
