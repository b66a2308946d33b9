package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"plwg/internal/metrics"
	"plwg/internal/rtnet"
)

// The traced rt run attaches one metrics.Registry (shared by the three
// nodes, so counters are cluster totals) and one trace.Ring per node
// through the public NodeConfig fields, reads the counters at both ends
// of the measure window, samples the pipeline queues at 10 Hz through
// the debug handler, and records spans around the benchmark's own calls.

// rtCounters are the unlabelled counters the traced run reads.
// Registry.Totals would add the per-group twins of the lwg_* families
// on top and count every LWG send twice.
var rtCounters = []string{
	"lwg_sends_total", "lwg_deliveries_total",
	"lwg_batch_flushes_total", "lwg_batched_msgs_total", "lwg_batched_bytes_total",
	"core_preinstall_drops_total",
	"hwg_sends_total", "hwg_deliveries_total", "hwg_nacks_total", "hwg_retrans_msgs_total",
	"hwg_suspects_total", "hwg_view_installs_total",
	"rtnet_datagrams_sent_total", "rtnet_bytes_sent_total",
	"rtnet_send_ring_overflow_total", "rtnet_send_errors_total", "rtnet_datagrams_malformed_total",
	"ns_client_retries_total",
}

func counterValues(reg *metrics.Registry) map[string]int64 {
	out := make(map[string]int64, len(rtCounters))
	for _, name := range rtCounters {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

// rtTrace is what a traced measure window collected besides the end-to-end
// numbers.
type rtTrace struct {
	reg           *metrics.Registry
	before, delta map[string]int64
	done          chan struct{}
	wg            sync.WaitGroup
	// Sampled at 10 Hz: what has no counter.
	ringMax, decodeMax int
	heapInusePeak      uint64
	samples            int

	spans           []span
	events, dropped uint64
	sent            int64
	lwgP50, hwgP50  float64 // seconds
	flushP50        time.Duration
	flushes         int64
}

// startTrace reads the counters and starts sampling the transport's
// queue depths and the heap.
func startTrace(c *rtCluster) *rtTrace {
	t := &rtTrace{reg: c.reg, before: counterValues(c.reg), done: make(chan struct{})}
	handlers := make([]http.Handler, len(c.nodes))
	for i, n := range c.nodes {
		handlers[i] = n.DebugHandler()
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.done:
				return
			case <-tick.C:
			}
			for _, h := range handlers {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/rtnet", nil))
				var st rtnet.PipelineStats
				if json.Unmarshal(rec.Body.Bytes(), &st) != nil {
					continue
				}
				if st.SendRingLen > t.ringMax {
					t.ringMax = st.SendRingLen
				}
				for _, l := range st.DecodeQueueLens {
					if l > t.decodeMax {
						t.decodeMax = l
					}
				}
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > t.heapInusePeak {
				t.heapInusePeak = ms.HeapInuse
			}
			t.samples++
		}
	}()
	return t
}

// stop ends the measure window: the sampler stops and the counters are
// read again.
func (t *rtTrace) stop() {
	close(t.done)
	t.wg.Wait()
	t.delta = counterValues(t.reg)
	for name, v := range t.before {
		t.delta[name] -= v
	}
}

// finish collects, after the drain, what the senders and receivers
// recorded about the sampled messages, and the registry's histograms.
func (t *rtTrace) finish(c *rtCluster, gens []*generator) {
	t.spans = buildSpans(c, gens)
	for _, ring := range c.rings {
		t.events += ring.Total()
		t.dropped += ring.Dropped()
	}
	for _, g := range gens {
		t.sent += g.sent
	}
	t.lwgP50, t.hwgP50 = histogramP50(c.reg, "lwg_oneway_latency"), histogramP50(c.reg, "hwg_oneway_latency")
	flush := c.reg.Histogram("hwg_flush_duration")
	t.flushP50, t.flushes = flush.Quantile(50), flush.Count()
}

// span is one line of the span file. Spans of one message share ID
// (sender and sequence number); Parent names the span that caused it.
type span struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Node    int    `json:"node"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// buildSpans joins what the senders and the receivers recorded about
// the sampled messages into four spans per message:
//
//	gen.wait           due → Node.Do entered (open loop only)
//	rtnet.driver.call  Node.Do entered → closure starts on the loop
//	core.send          closure reaches the message → ep.Send returns
//	stack.transit      ep.Send returned → Data upcall, once per receiver
func buildSpans(c *rtCluster, gens []*generator) []span {
	type arrived struct {
		node int
		at   int64
	}
	arrivals := make(map[string][]arrived)
	id := func(src int, seq uint64) string { return fmt.Sprintf("%d.%d", src, seq) }
	for i, s := range c.sinks {
		for _, a := range s.arrivals {
			k := id(int(a.src), a.seq)
			arrivals[k] = append(arrivals[k], arrived{i, a.at})
		}
	}
	var spans []span
	for _, g := range gens {
		for _, s := range g.spans {
			k := id(g.src, s.seq)
			if s.origin < s.enter {
				spans = append(spans, span{k, "gen.wait", "", g.src, s.origin, s.enter})
			}
			spans = append(spans,
				span{k, "rtnet.driver.call", "gen.wait", g.src, s.enter, s.start},
				span{k, "core.send", "rtnet.driver.call", g.src, s.sendStart, s.sendEnd})
			for _, a := range arrivals[k] {
				spans = append(spans, span{k, "stack.transit", "core.send", a.node, s.sendEnd, a.at})
			}
		}
	}
	return spans
}

// rtLayerMetrics turns a traced measure window into the per-layer
// metrics the rt workloads own, and returns its spans with the workload
// prefixed to their ids.
func rtLayerMetrics(w *rtWindow, res *Result) []span {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t := w.trace
	d := func(name string) float64 { return float64(t.delta[name]) }
	late, call, msgs := &w.late, &w.call, w.msgs
	spans := t.spans
	for i := range spans {
		spans[i].ID = res.Workload + "/" + spans[i].ID
	}
	if late.n > 0 {
		res.set("bench.gen_late_p99_ms", "ms", late.quantile(0.99)/1e6, late.n)
		res.set("bench.gen_late_max_ms", "ms", float64(late.max)/1e6, late.n)
	}
	res.set("bench.send_call_p50_us", "us", call.quantile(0.5)/1e3, call.n)
	res.set("bench.heap_inuse_peak_mb", "MB", float64(t.heapInusePeak)/(1<<20), int64(t.samples))

	res.set("core.batch_msgs_per_flush", "ratio", ratio(d("lwg_batched_msgs_total"), d("lwg_batch_flushes_total")), int64(d("lwg_batch_flushes_total")))
	res.set("core.batch_bytes_per_flush", "B", ratio(d("lwg_batched_bytes_total"), d("lwg_batch_flushes_total")), int64(d("lwg_batch_flushes_total")))
	res.set("core.hwg_sends_per_lwg_send", "ratio", ratio(d("hwg_sends_total"), d("lwg_sends_total")), int64(d("lwg_sends_total")))
	res.set("core.preinstall_drops", "count", d("core_preinstall_drops_total"), 1)
	res.set("core.lwg_minus_hwg_oneway_p50_ms", "ms", (t.lwgP50-t.hwgP50)*1e3, 1)

	kmsg := d("hwg_sends_total") / 1000
	res.set("vsync.retrans_per_kmsg", "ratio", ratio(d("hwg_retrans_msgs_total"), kmsg), int64(d("hwg_retrans_msgs_total")))
	res.set("vsync.nacks_per_kmsg", "ratio", ratio(d("hwg_nacks_total"), kmsg), int64(d("hwg_nacks_total")))
	res.set("vsync.suspects", "count", d("hwg_suspects_total"), 1)
	res.set("vsync.flush_p50_ms", "ms", ms(t.flushP50), t.flushes)
	if d("hwg_suspects_total") != 0 {
		res.violate("%v failure suspicions on a healthy loopback cluster", d("hwg_suspects_total"))
	}

	deliveries := float64(msgs) * (rtNodes - 1)
	res.set("wire.bytes_per_msg", "B", ratio(d("rtnet_bytes_sent_total"), deliveries), int64(deliveries))
	res.set("rtnet.datagrams_per_msg", "ratio", ratio(d("rtnet_datagrams_sent_total"), float64(msgs)), msgs)
	res.set("rtnet.sys_cpu_share", "ratio", ratio(float64(w.sys), float64(w.cpu)), 1)
	res.set("rtnet.send_ring_depth_max", "count", float64(t.ringMax), int64(t.samples))
	res.set("rtnet.decode_queue_depth_max", "count", float64(t.decodeMax), int64(t.samples))
	res.set("rtnet.send_ring_overflow", "count", d("rtnet_send_ring_overflow_total"), 1)
	res.set("rtnet.send_errors", "count", d("rtnet_send_errors_total"), 1)
	res.set("rtnet.malformed", "count", d("rtnet_datagrams_malformed_total"), 1)
	res.set("naming.client_retries", "count", d("ns_client_retries_total"), 1)

	var driverCall []float64
	for _, s := range spans {
		if s.Name == "rtnet.driver.call" {
			driverCall = append(driverCall, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	res.setQuartiles("rtnet.driver_call_us", "us", driverCall)
	res.set("obs.trace_events_per_msg", "ratio", ratio(float64(t.events), float64(t.sent)), int64(t.events))
	res.set("obs.ring_dropped", "count", float64(t.dropped), 1)
	return spans
}

// histogramP50 returns the median, in seconds, of the per-label medians
// of a labelled latency histogram family (one label per group).
func histogramP50(reg *metrics.Registry, family string) float64 {
	counts := make(map[string]float64)
	var p50s []float64
	snap := reg.Snapshot()
	for _, s := range snap {
		if s.Name == family+"_count" {
			counts[s.Labels] = s.Value
		}
	}
	for _, s := range snap {
		if s.Name == family+"_p50_seconds" && counts[s.Labels] > 0 {
			p50s = append(p50s, s.Value)
		}
	}
	if len(p50s) == 0 {
		return 0
	}
	return median(p50s)
}
