package collect

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/rtnet"
	"plwg/internal/trace"
)

// startObservedCluster boots n live UDP nodes, every one instrumented
// with its own registry and trace ring and exposing a debug server, and
// returns the nodes plus a collector scraping all of them. The nodes
// have no upcalls: the test observes the cluster exclusively through
// the collector, which is the point.
func startObservedCluster(t *testing.T, n int, servers []ids.ProcessID) ([]*rtnet.Node, *Collector) {
	t.Helper()
	nodes := make([]*rtnet.Node, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := rtnet.Listen(rtnet.NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: servers,
			Tracer:      trace.NewRing(trace.DefaultRingCapacity),
			Metrics:     metrics.NewRegistry(),
			// Sample every data envelope so the latency histograms fill
			// from modest test traffic.
			TraceSampleEvery: 1,
			Seed:             int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		srv := httptest.NewServer(node.DebugHandler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
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
	return nodes, New(Config{Targets: urls})
}

// scrapeUntil keeps running scrape rounds until the health report
// satisfies cond or the budget runs out.
func scrapeUntil(t *testing.T, c *Collector, d time.Duration, cond func(Health) bool, msg string) Health {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		c.ScrapeOnce(context.Background())
		h := c.HealthSnapshot()
		if cond(h) {
			return h
		}
		if time.Now().After(deadline) {
			b, _ := json.Marshal(h)
			t.Fatalf("%s; last health: %s", msg, b)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// partitionCount counts partitions that contain at least one member.
func partitionCount(h Health) int { return len(h.Partitions) }

// TestE2EPartitionHealObservedThroughCollector is the acceptance run:
// a live three-node UDP cluster observed ONLY through lwgcollect's
// machinery. The health view must transition 1 → 2 → 1 partitions as a
// fault splits and heals the cluster, and afterwards the collector's
// merged rings must contain a stitched cross-node merge operation plus
// a final view install spanning every node — the same op shapes the
// deterministic simulation's stitching golden asserts.
func TestE2EPartitionHealObservedThroughCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("live multi-second cluster run")
	}
	nodes, c := startObservedCluster(t, 3, []ids.ProcessID{0, 2})
	for i := range nodes {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("chat") })
	}

	// Phase 1: one partition containing all three members.
	scrapeUntil(t, c, 30*time.Second, func(h Health) bool {
		return partitionCount(h) == 1 && len(h.Partitions[0].Members) == 3
	}, "cluster did not converge to one 3-member partition")

	// Traffic on both future sides, so wire trace contexts flow.
	nodes[0].Do(func(ep *core.Endpoint) { _ = ep.Send("chat", []byte("before-split")) })

	// Phase 2: split {p0,p1} | {p2}.
	block := &faults.Rule{Block: true}
	nodes[0].SetLinkFault(2, block)
	nodes[1].SetLinkFault(2, block)
	nodes[2].SetLinkFault(0, block)
	nodes[2].SetLinkFault(1, block)
	h := scrapeUntil(t, c, 45*time.Second, func(h Health) bool {
		return partitionCount(h) == 2
	}, "collector did not observe the split")
	if len(h.Disagreements) == 0 {
		t.Errorf("split health reports no view disagreement: %+v", h)
	}
	nodes[0].Do(func(ep *core.Endpoint) { _ = ep.Send("chat", []byte("side-A")) })
	nodes[2].Do(func(ep *core.Endpoint) { _ = ep.Send("chat", []byte("side-B")) })

	// Phase 3: heal back to one partition of three.
	for _, n := range nodes {
		n.SetFaults(nil)
	}
	scrapeUntil(t, c, 60*time.Second, func(h Health) bool {
		return partitionCount(h) == 1 && len(h.Partitions[0].Members) == 3 &&
			len(h.Disagreements) == 0
	}, "collector did not observe the heal")

	// The merged rings must stitch the reconciliation: a cross-node
	// merge-views (or switch) operation, and a "chat" view install
	// spanning all three nodes.
	ops := c.Ops()
	var mergeNodes, installAll ids.Members
	for _, op := range ops {
		if (op.Key.Kind == "merge-views" || op.Key.Kind == "switch") && len(op.Nodes) > len(mergeNodes) {
			mergeNodes = op.Nodes
		}
		if op.Key.Kind == "lwg-view" && op.Key.Group == "chat" && op.Nodes.Equal(ids.NewMembers(0, 1, 2)) {
			installAll = op.Nodes
		}
	}
	if len(mergeNodes) < 2 {
		t.Errorf("no cross-node merge/switch op stitched from live rings (%d ops)", len(ops))
	}
	if len(installAll) != 3 {
		t.Errorf("no chat view install spanning all 3 nodes stitched from live rings (%d ops)", len(ops))
	}

	// The collector's HTTP surface agrees with the programmatic view.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var health Health
	getJSON(t, srv.URL+"/cluster/health", &health)
	if partitionCount(health) != 1 {
		t.Errorf("/cluster/health partitions = %+v, want 1", health.Partitions)
	}
	body := getBody(t, srv.URL+"/cluster/ops")
	opLines := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var op opJSON
		if err := json.Unmarshal([]byte(line), &op); err != nil {
			t.Fatalf("/cluster/ops line is not JSON: %v\n%s", err, line)
		}
		opLines++
	}
	if opLines != len(ops) {
		t.Errorf("/cluster/ops lines = %d, want %d", opLines, len(ops))
	}
	metricsBody := getBody(t, srv.URL+"/cluster/metrics")
	samples, err := ParseText(strings.NewReader(metricsBody))
	if err != nil {
		t.Fatalf("/cluster/metrics does not parse: %v", err)
	}
	// Layer-3 acceptance: the wire trace contexts fed the one-way
	// latency histograms at both protocol levels on at least one node.
	var hwgLat, lwgLat, tcRecv float64
	for _, s := range samples {
		switch s.Name {
		case "hwg_oneway_latency_count":
			hwgLat += s.Value
		case "lwg_oneway_latency_count":
			lwgLat += s.Value
		case "rtnet_trace_ctx_recv_total":
			tcRecv += s.Value
		}
	}
	if tcRecv == 0 {
		t.Error("no wire trace contexts received anywhere in the cluster")
	}
	if hwgLat == 0 {
		t.Error("hwg one-way latency histogram never observed a sample")
	}
	if lwgLat == 0 {
		t.Error("lwg one-way latency histogram never observed a sample")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}
