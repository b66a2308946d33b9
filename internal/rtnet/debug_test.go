package rtnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/trace"
)

// startDebugCluster boots a cluster like startCluster but instruments
// node 0 with a metrics registry and a trace ring.
func startDebugCluster(t *testing.T, n int) ([]*Node, []*collector, *metrics.Registry, *trace.Ring) {
	t.Helper()
	reg := metrics.NewRegistry()
	ring := trace.NewRing(trace.DefaultRingCapacity)
	nodes := make([]*Node, n)
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		cols[i] = &collector{}
		cfg := NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: []ids.ProcessID{0},
			Upcalls:     cols[i],
			Seed:        int64(i + 1),
		}
		if i == 0 {
			cfg.Metrics = reg
			cfg.Tracer = ring
		}
		node, err := Listen(cfg)
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
	return nodes, cols, reg, ring
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// parseTextMetrics parses the /metrics exposition format back into a
// name{labels} -> value map, failing the test on any malformed line.
func parseTextMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric kind %q", ln+1, fields[1])
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		name := line[:sp]
		if _, dup := out[name]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, name)
		}
		out[name] = val
	}
	return out
}

// TestDebugEndpoints drives live traffic through a 3-node UDP cluster
// and checks the debug surface of the instrumented node: /metrics
// parses and carries every layer's families, /debug/trace is valid
// JSONL that stitches, and /debug/lwg reports the converged membership.
func TestDebugEndpoints(t *testing.T) {
	nodes, cols, _, _ := startDebugCluster(t, 3)
	for i := range nodes {
		i := i
		nodes[i].Do(func(ep *core.Endpoint) {
			if err := ep.Join("dbg"); err != nil {
				t.Errorf("join at %d: %v", i, err)
			}
		})
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
	}, "membership did not converge")

	srv := httptest.NewServer(nodes[0].DebugHandler())
	defer srv.Close()

	// Keep traffic flowing while the endpoints are scraped: the handlers
	// must be safe against a live protocol loop (the -race run enforces
	// it).
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nodes[i%3].Do(func(ep *core.Endpoint) {
				_ = ep.Send("dbg", []byte("debug-traffic"))
			})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()

	for i := 0; i < 5; i++ {
		code, body := httpGet(t, srv.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		series := parseTextMetrics(t, body)
		for _, want := range []string{
			"rtnet_datagrams_sent_total", "rtnet_datagrams_recv_total",
			"rtnet_bundled_frames_total",
			"hwg_sends_total", "hwg_view_installs_total",
			"lwg_joins_total", "lwg_view_installs_total",
			"ns_rounds_total",
		} {
			if _, ok := series[want]; !ok {
				t.Fatalf("scrape %d: /metrics missing %s\n%s", i, want, body)
			}
		}
		if series["lwg_groups"] != 1 {
			t.Errorf("lwg_groups = %v, want 1", series["lwg_groups"])
		}

		code, body = httpGet(t, srv.URL+"/debug/trace")
		if code != http.StatusOK {
			t.Fatalf("/debug/trace status %d", code)
		}
		events, err := trace.ParseJSONL(strings.NewReader(body))
		if err != nil {
			t.Fatalf("scrape %d: /debug/trace is not valid JSONL: %v", i, err)
		}
		if len(events) == 0 {
			t.Fatalf("scrape %d: /debug/trace returned no events", i)
		}
		for _, ev := range events {
			if ev.Node != 0 {
				t.Fatalf("event from foreign node %v in local ring", ev.Node)
			}
		}
		if i == 0 {
			if ops := trace.Stitch(events); len(ops) == 0 {
				t.Error("no ops stitched from the live trace ring")
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, body := httpGet(t, srv.URL+"/debug/lwg")
	if code != http.StatusOK {
		t.Fatalf("/debug/lwg status %d", code)
	}
	var dbg DebugLWG
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatalf("/debug/lwg is not valid JSON: %v\n%s", err, body)
	}
	if dbg.PID != 0 {
		t.Errorf("pid = %v, want 0", dbg.PID)
	}
	if len(dbg.LWGs) != 1 || dbg.LWGs[0].LWG != "dbg" {
		t.Fatalf("lwgs = %+v, want one entry for dbg", dbg.LWGs)
	}
	if got := len(dbg.LWGs[0].Members); got != 3 {
		t.Errorf("members = %v, want 3", dbg.LWGs[0].Members)
	}
	if dbg.LWGs[0].HWG == "" || len(dbg.HWGs) == 0 {
		t.Errorf("mapping not reported: %+v hwgs=%v", dbg.LWGs[0], dbg.HWGs)
	}

	code, _ = httpGet(t, srv.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// debugFetch is the goroutine-safe httpGet: scraper goroutines cannot
// call t.Fatalf, so failures come back as errors.
func debugFetch(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// TestDebugEndpointsConcurrent hammers every debug endpoint from several
// goroutines while protocol traffic flows AND the fault table mutates
// underneath (spec installs, link overrides, blocks, clears mid-scrape).
// The -race run is the real assertion: the debug surface — which is what
// lwgcollect polls in production — must never race the protocol loop or
// the fault layer, and every response must stay parseable even while the
// cluster is being actively broken.
func TestDebugEndpointsConcurrent(t *testing.T) {
	nodes, cols, _, ring := startDebugCluster(t, 3)
	for i := range nodes {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("dbg") })
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
	}, "membership did not converge")

	srv := httptest.NewServer(nodes[0].DebugHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var bgWg, scrWg sync.WaitGroup

	// Traffic: every node keeps sending while the scrapers run.
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nodes[i%3].Do(func(ep *core.Endpoint) {
				_ = ep.Send("dbg", []byte("concurrent-traffic"))
			})
			time.Sleep(time.Millisecond)
		}
	}()

	// Fault mutator: cycle the whole mutation surface against the live
	// links — spec installs, per-link overrides, symmetric blocks, clears.
	lossy, err := faults.Parse("loss=0.1,dup=0.1,delay=100us..1ms")
	if err != nil {
		t.Fatal(err)
	}
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				nodes[0].SetFaults(lossy)
			case 1:
				nodes[0].SetLinkFault(2, &faults.Rule{Reorder: 0.5, DelayMax: time.Millisecond})
				blockLinks(nodes[1], 2)
				blockLinks(nodes[2], 1)
			case 2:
				nodes[1].SetFaults(nil)
				nodes[2].SetFaults(nil)
				nodes[0].SetLinkFault(2, nil)
			case 3:
				nodes[0].SetFaults(nil)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Scrapers: four concurrent pollers × every endpoint, exactly the
	// load pattern a collector fleet puts on one node.
	scrapeErrs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		scrWg.Add(1)
		go func() {
			defer scrWg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/metrics", "/debug/trace", "/debug/lwg"} {
					code, body, err := debugFetch(srv.URL + path)
					if err != nil || code != http.StatusOK {
						select {
						case scrapeErrs <- fmt.Errorf("%s: code %d err %v", path, code, err):
						default:
						}
						continue
					}
					switch path {
					case "/debug/trace":
						if _, err := trace.ParseJSONL(strings.NewReader(body)); err != nil {
							select {
							case scrapeErrs <- fmt.Errorf("trace JSONL under load: %v", err):
							default:
							}
						}
					case "/debug/lwg":
						var dbg DebugLWG
						if err := json.Unmarshal([]byte(body), &dbg); err != nil {
							select {
							case scrapeErrs <- fmt.Errorf("lwg JSON under load: %v", err):
							default:
							}
						}
					}
				}
			}
		}()
	}

	// The scrapers bound the run; the traffic and mutator loops stop once
	// they finish (or once a generous deadline decides something wedged).
	done := make(chan struct{})
	go func() { scrWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Error("concurrent debug scrape did not finish in 60s")
	}
	close(stop)
	bgWg.Wait()
	for len(scrapeErrs) > 0 {
		t.Error(<-scrapeErrs)
	}

	// Leave the cluster healthy and the surface coherent: faults cleared,
	// one final scrape parses, and the ring kept absorbing events.
	for _, n := range nodes {
		n.SetFaults(nil)
	}
	code, body := httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final /metrics status %d", code)
	}
	parseTextMetrics(t, body)
	if ring.Total() == 0 {
		t.Error("trace ring absorbed no events during the run")
	}
}

// TestDebugEndpointsDisabled covers the uninstrumented node: the debug
// surface stays up but reports the disabled subsystems as 404.
func TestDebugEndpointsDisabled(t *testing.T) {
	nodes, _ := startCluster(t, 1, []ids.ProcessID{0})
	srv := httptest.NewServer(nodes[0].DebugHandler())
	defer srv.Close()

	if code, _ := httpGet(t, srv.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics without registry: status %d, want 404", code)
	}
	if code, _ := httpGet(t, srv.URL+"/debug/trace"); code != http.StatusNotFound {
		t.Errorf("/debug/trace without ring: status %d, want 404", code)
	}
	if code, _ := httpGet(t, srv.URL+"/debug/lwg"); code != http.StatusOK {
		t.Errorf("/debug/lwg status %d, want 200", code)
	}
}
