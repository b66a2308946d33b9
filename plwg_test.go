package plwg

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("zero nodes must be rejected")
	}
	if _, err := NewCluster(Config{Nodes: 2, NameServers: []int{5}}); err == nil {
		t.Error("out-of-range name server must be rejected")
	}
	c, err := NewCluster(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Process(-1) != nil || c.Process(2) != nil {
		t.Error("out-of-range Process must return nil")
	}
	if c.Nodes() != 2 {
		t.Errorf("Nodes = %d", c.Nodes())
	}
}

// TestRepeatedNameServerRejected: a node listed twice would host two
// servers, one orphaned but still syncing, and every peer list would
// carry it twice.
func TestRepeatedNameServerRejected(t *testing.T) {
	_, err := NewCluster(Config{Nodes: 3, NameServers: []int{0, 1, 1}})
	if want := "plwg: name server index 1 listed twice"; err == nil || err.Error() != want {
		t.Fatalf("NewCluster = %v, want %q", err, want)
	}
}

// TestClusterTrajectoryPinned pins the exact virtual-time trajectory of a
// seeded script — joins on both sides of a partition (conflicting
// mappings), heal, crash — by the FNV-64a hash of its rendered trace. Any
// change to construction order, timers or RNG draws moves it; a change
// that does so on purpose updates the constants and says why.
func TestClusterTrajectoryPinned(t *testing.T) {
	const wantEvents, wantHash = 439, uint64(0xc7430237b8997f1d)
	var cfg Config
	cfg.Nodes, cfg.NameServers, cfg.Seed = 8, []int{0, 4}, 29
	cfg.Service.PolicyInterval = 10 * time.Second
	cfg.CollectTrace = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	join := func(p int, g GroupName) *Group {
		h, err := c.Process(p).Join(g)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a1, _, a5, _ := join(1, "a"), join(2, "b"), join(5, "a"), join(6, "b")
	c.Run(3 * time.Second)
	join(2, "a")
	join(1, "b")
	join(6, "a")
	join(5, "b")
	c.Run(3 * time.Second)
	_ = a1.Send([]byte("left"))
	_ = a5.Send([]byte("right"))
	c.Heal()
	c.Run(10 * time.Second)
	c.Crash(6)
	c.Run(5 * time.Second)
	_ = a1.Send([]byte("after"))
	c.Run(time.Second)

	h := fnv.New64a()
	for _, e := range c.Trace().Events {
		fmt.Fprintf(h, "%d %s\n", int64(e.At), e)
	}
	if n, sum := len(c.Trace().Events), h.Sum64(); n != wantEvents || sum != wantHash {
		t.Fatalf("trajectory moved: %d events, hash %#x; pinned %d events, hash %#x",
			n, sum, wantEvents, wantHash)
	}
}

func TestQuickstartFlow(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 4, NameServers: []int{0}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := c.Process(1).Join("chat")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Process(2).Join("chat")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	g2.OnData(func(src ProcessID, data []byte) {
		got = append(got, fmt.Sprintf("%v:%s", src, data))
	})
	ok := c.RunUntil(func() bool {
		v, has := g1.View()
		return has && len(v.Members) == 2
	}, 100*time.Millisecond, 10*time.Second)
	if !ok {
		t.Fatal("membership did not converge")
	}
	if err := g1.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if len(got) != 1 || got[0] != "p1:hello" {
		t.Fatalf("delivery = %v", got)
	}
}

func TestViewHandler(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var views []View
	g1, _ := c.Process(1).Join("g")
	g1.OnView(func(v View) { views = append(views, v) })
	c.Run(2 * time.Second)
	if _, err := c.Process(2).Join("g"); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	if len(views) < 2 {
		t.Fatalf("expected at least 2 view upcalls, got %d", len(views))
	}
	last := views[len(views)-1]
	if len(last.Members) != 2 {
		t.Errorf("final view = %v", last)
	}
}

func TestPartitionHealEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 8, NameServers: []int{0, 4}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	gA, _ := c.Process(1).Join("subject")
	gB, _ := c.Process(5).Join("subject")
	c.Run(5 * time.Second)
	if vA, ok := gA.View(); !ok || len(vA.Members) != 1 {
		t.Fatalf("side A view wrong: %v %v", vA, ok)
	}
	c.Heal()
	converged := c.RunUntil(func() bool {
		vA, okA := gA.View()
		vB, okB := gB.View()
		return okA && okB && vA.ID == vB.ID && len(vA.Members) == 2
	}, 200*time.Millisecond, 20*time.Second)
	if !converged {
		t.Fatalf("views did not merge after heal; naming:\n%s", c.NamingDump())
	}
	dump := c.NamingDump()
	if !strings.Contains(dump, "subject") {
		t.Errorf("naming dump missing the group:\n%s", dump)
	}
}

func TestLeaveViaHandle(t *testing.T) {
	c, _ := NewCluster(Config{Nodes: 3, Seed: 2})
	g1, _ := c.Process(1).Join("g")
	g2, _ := c.Process(2).Join("g")
	c.Run(4 * time.Second)
	if err := g2.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := g2.Send([]byte("x")); err == nil {
		t.Error("Send after Leave must fail")
	}
	if err := g2.Leave(); err == nil {
		t.Error("double Leave must fail")
	}
	c.Run(2 * time.Second)
	v, ok := g1.View()
	if !ok || len(v.Members) != 1 {
		t.Errorf("remaining view = %v", v)
	}
}

func TestCrashViaCluster(t *testing.T) {
	c, _ := NewCluster(Config{Nodes: 4, Seed: 5})
	g1, _ := c.Process(1).Join("g")
	g2, _ := c.Process(2).Join("g")
	_ = g2
	c.Run(4 * time.Second)
	c.Crash(2)
	ok := c.RunUntil(func() bool {
		v, has := g1.View()
		return has && len(v.Members) == 1
	}, 100*time.Millisecond, 10*time.Second)
	if !ok {
		t.Fatal("view did not recover from the crash")
	}
}

func TestNetStatsExposed(t *testing.T) {
	c, _ := NewCluster(Config{Nodes: 2, Seed: 9})
	g, _ := c.Process(1).Join("g")
	c.Run(2 * time.Second)
	_ = g.Send(make([]byte, 1000))
	c.Run(time.Second)
	st := c.NetStats()
	if st.Frames == 0 || st.Bytes == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.ByKind["data"] == 0 {
		t.Errorf("no data frames accounted: %v", st.ByKind)
	}
	c.ResetNetStats()
	if c.NetStats().Frames != 0 {
		t.Error("ResetNetStats did not clear")
	}
}

func TestTraceCollection(t *testing.T) {
	c, _ := NewCluster(Config{Nodes: 2, Seed: 4, CollectTrace: true})
	_, _ = c.Process(1).Join("g")
	c.Run(2 * time.Second)
	tr := c.Trace()
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace collected")
	}
	if got := tr.Filter("lwg", ""); len(got) == 0 {
		t.Error("no lwg-layer events recorded")
	}
}

func TestDeterminismAcrossClusters(t *testing.T) {
	run := func() string {
		c, _ := NewCluster(Config{Nodes: 6, NameServers: []int{0, 3}, Seed: 42})
		var handles []*Group
		for i := 1; i < 6; i++ {
			g, _ := c.Process(i).Join("g")
			handles = append(handles, g)
		}
		c.Run(4 * time.Second)
		c.Partition([]int{0, 1, 2}, []int{3, 4, 5})
		c.Run(4 * time.Second)
		c.Heal()
		c.Run(8 * time.Second)
		var out strings.Builder
		for _, g := range handles {
			v, _ := g.View()
			fmt.Fprintf(&out, "%v;", v)
		}
		out.WriteString(c.NamingDump())
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic cluster runs:\n%s\nvs\n%s", a, b)
	}
}
