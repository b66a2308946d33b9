package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/rtnet"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// hostileLWG is a group name exercising every exposition escape.
const hostileLWG = "a\"b\\c\nd"

// fakeNode builds an httptest server that mimics one node's debug
// surface: a real registry rendered by WriteText (so the scrape is a
// true writer→parser round trip), a canned /debug/lwg snapshot and a
// canned trace ring.
func fakeNode(t *testing.T, pid ids.ProcessID, lwgs []rtnet.DebugLWGEntry, events []trace.Event) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("lwg_sends_total", metrics.L("lwg", hostileLWG)).Add(5)
	reg.Counter("rtnet_datagrams_sent_total").Add(int64(100 + pid))
	reg.Gauge("lwg_groups").Set(int64(len(lwgs)))
	snapshot := rtnet.DebugLWG{PID: pid, LWGs: lwgs}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/debug/lwg", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(snapshot)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		_ = trace.WriteJSONL(w, events)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// deadTarget returns a URL nothing listens on.
func deadTarget(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

func viewEvent(node ids.ProcessID, at sim.Time, group string, view ids.ViewID, members ...ids.ProcessID) trace.Event {
	return trace.Event{
		At: at, Node: node, Layer: "lwg", What: trace.LWGViewInstall,
		Group: group, View: view, Members: ids.NewMembers(members...),
	}
}

// TestCollectorRoundTrip scrapes two live fake nodes plus one dead
// target and checks the merged view: hostile labels survive the
// writer→scraper round trip, cross-node events dedup and stitch, the
// health report maps partitions from view membership, and the dead node
// degrades without erroring anything.
func TestCollectorRoundTrip(t *testing.T) {
	viewA := ids.ViewID{Coord: 0, Seq: 3}
	viewB := ids.ViewID{Coord: 2, Seq: 1}
	// Nodes p0, p1 share group "chat" in view p0/3 ({p0,p1}); node p2 is
	// partitioned away with its own singleton view of "chat".
	n0 := fakeNode(t, 0,
		[]rtnet.DebugLWGEntry{{LWG: "chat", View: viewA.String(), Members: []string{"p0", "p1"}, HWG: "hwg1", Coord: true}},
		[]trace.Event{viewEvent(0, 1000, "chat", viewA, 0, 1)})
	n1 := fakeNode(t, 1,
		[]rtnet.DebugLWGEntry{{LWG: "chat", View: viewA.String(), Members: []string{"p0", "p1"}, HWG: "hwg1"}},
		[]trace.Event{viewEvent(1, 1200, "chat", viewA, 0, 1)})
	n2 := fakeNode(t, 2,
		[]rtnet.DebugLWGEntry{{LWG: "chat", View: viewB.String(), Members: []string{"p2"}, HWG: "hwg2"}},
		[]trace.Event{viewEvent(2, 900, "chat", viewB, 2)})
	dead := deadTarget(t)

	c := New(Config{Targets: []string{n0.URL, n1.URL, n2.URL, dead}})
	ctx := context.Background()
	c.ScrapeOnce(ctx)
	c.ScrapeOnce(ctx) // second round: everything below must be dedup-stable

	// Merged events: three distinct view installs, scraped twice, merged
	// once each.
	if got := len(c.Events()); got != 3 {
		t.Errorf("merged events = %d, want 3 (dedup across rounds)", got)
	}
	// The two p0/3 installs stitch into one cross-node lwg-view op.
	ops := c.Ops()
	var chatOp *trace.Op
	for i := range ops {
		if ops[i].Key.Kind == "lwg-view" && ops[i].Key.View == viewA {
			chatOp = &ops[i]
		}
	}
	if chatOp == nil {
		t.Fatalf("no stitched lwg-view op for %v in %+v", viewA, c.Ops())
	}
	if !chatOp.Nodes.Equal(ids.NewMembers(0, 1)) {
		t.Errorf("op nodes = %v, want p0,p1", chatOp.Nodes)
	}

	// Health: two partitions ({p0,p1} and {p2}), one disagreement on
	// "chat", and the dead target unreachable but not erroring the view.
	h := c.HealthSnapshot()
	if len(h.Partitions) != 2 {
		t.Fatalf("partitions = %+v, want 2", h.Partitions)
	}
	if got := h.Partitions[0].Members; len(got) != 2 || got[0] != "p0" || got[1] != "p1" {
		t.Errorf("partition 0 members = %v, want [p0 p1]", got)
	}
	if got := h.Partitions[1].Members; len(got) != 1 || got[0] != "p2" {
		t.Errorf("partition 1 members = %v, want [p2]", got)
	}
	if len(h.Disagreements) != 1 || !strings.HasPrefix(h.Disagreements[0], "chat:") {
		t.Errorf("disagreements = %v, want one for chat", h.Disagreements)
	}
	var deadRow, liveRow *NodeHealth
	for i := range h.Nodes {
		switch h.Nodes[i].URL {
		case dead:
			deadRow = &h.Nodes[i]
		case n0.URL:
			liveRow = &h.Nodes[i]
		}
	}
	if deadRow == nil || deadRow.Reachable || deadRow.Error == "" {
		t.Errorf("dead node row = %+v, want unreachable with error", deadRow)
	}
	if liveRow == nil || !liveRow.Reachable || liveRow.Name != "p0" {
		t.Errorf("live node row = %+v, want reachable p0", liveRow)
	}

	// Cluster metrics: per-node samples with the node label, hostile
	// label value intact, and the whole output reparsable.
	var b strings.Builder
	c.WriteClusterMetrics(&b)
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("/cluster/metrics does not reparse: %v\n%s", err, b.String())
	}
	found := false
	for _, s := range samples {
		if s.Name != "lwg_sends_total" {
			continue
		}
		var lwg, node string
		for _, l := range s.Labels {
			switch l.Key {
			case "lwg":
				lwg = l.Value
			case "node":
				node = l.Value
			}
		}
		if lwg == hostileLWG && node == "p1" {
			found = true
			if s.Value != 5 {
				t.Errorf("hostile sample value = %v, want 5", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("hostile label did not survive the scrape round trip:\n%s", b.String())
	}
	var rounds, reachable float64
	for _, s := range samples {
		switch s.Name {
		case "cluster_scrape_rounds_total":
			rounds = s.Value
		case "cluster_nodes_reachable":
			reachable = s.Value
		}
	}
	if rounds != 2 || reachable != 3 {
		t.Errorf("cluster rounds=%v reachable=%v, want 2 and 3", rounds, reachable)
	}
}

// TestCollectorLastKnownState kills a node between rounds and checks it
// degrades to stale last-known-state: still present in the health
// report and cluster metrics, flagged unreachable, samples preserved.
func TestCollectorLastKnownState(t *testing.T) {
	view := ids.ViewID{Coord: 0, Seq: 1}
	n0 := fakeNode(t, 0,
		[]rtnet.DebugLWGEntry{{LWG: "g", View: view.String(), Members: []string{"p0"}}},
		[]trace.Event{viewEvent(0, 500, "g", view, 0)})
	c := New(Config{Targets: []string{n0.URL}})
	ctx := context.Background()
	c.ScrapeOnce(ctx)
	n0.Close()
	c.ScrapeOnce(ctx)

	h := c.HealthSnapshot()
	if len(h.Nodes) != 1 {
		t.Fatalf("nodes = %+v", h.Nodes)
	}
	row := h.Nodes[0]
	if row.Reachable || row.StaleSeconds <= 0 || row.Error == "" || row.Name != "p0" {
		t.Errorf("row = %+v, want stale unreachable p0 with error", row)
	}
	// Membership evidence from the stale snapshot still maps the node's
	// partition, and its samples still export (with node_stale = 1).
	if len(h.Partitions) != 1 || len(h.Partitions[0].Members) != 1 {
		t.Errorf("partitions = %+v, want p0 still mapped", h.Partitions)
	}
	var b strings.Builder
	c.WriteClusterMetrics(&b)
	out := b.String()
	if !strings.Contains(out, `node_stale{node="p0"} 1`) {
		t.Errorf("missing stale flag:\n%s", out)
	}
	if !strings.Contains(out, "lwg_sends_total") {
		t.Errorf("stale node's samples vanished:\n%s", out)
	}
	// Stitched ops from the dead node's ring survive too.
	if len(c.Ops()) != 1 {
		t.Errorf("ops = %+v, want the one from before the crash", c.Ops())
	}
}

// TestParseTextRejectsMalformed pins the scraper's failure modes.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`x{lwg="unterminated} 1`,
		`x{lwg="bad\escape"} 1`,
		`x{lwg=unquoted} 1`,
		`x{lwg="v"} notanumber`,
		`justaname`,
		`{lwg="v"} 1`, // no metric name
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseText feeds ParseText arbitrary /metrics bodies (whatever a
// scraped endpoint answers): it must not panic, and every sample it
// returns re-renders — the way the collector's own exposition renders
// it — to a line that parses back to the same sample.
func FuzzParseText(f *testing.F) {
	f.Add("# TYPE lwg_sends_total counter\nlwg_sends_total 5\nlwg_oneway_latency_count{lwg=\"a\"} 3\n")
	f.Add(`x{lwg="a\"b\\c\nd",node="n1"} -1.5e-7` + "\n")
	f.Add(`x{k="1",k="2",,j="3"}0x1p-2`)
	f.Add("{} 1\n")
	f.Add("up NaN\r\ndown +Inf")
	f.Fuzz(func(t *testing.T, body string) {
		samples, err := ParseText(strings.NewReader(body))
		if err != nil {
			return
		}
		render := func(s Sample) string { return fmt.Sprintf("%s%s %v", s.Name, s.labelString(), s.Value) }
		for _, s := range samples {
			line := render(s)
			again, err := ParseText(strings.NewReader(line))
			if err != nil || len(again) != 1 {
				t.Fatalf("sample %+v rendered as %q parses to %+v, %v", s, line, again, err)
			}
			if got := render(again[0]); got != line || again[0].Name != s.Name || !reflect.DeepEqual(again[0].Labels, s.Labels) {
				t.Fatalf("sample %+v rendered as %q parses back as %+v", s, line, again[0])
			}
		}
	})
}
