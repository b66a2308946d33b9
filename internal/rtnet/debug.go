package rtnet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/trace"
)

// DebugHandler serves a node's live introspection surface:
//
//	/metrics        metrics registry in a text exposition format
//	/debug/lwg      JSON snapshot of group membership and mappings
//	/debug/rtnet    JSON snapshot of the transport's data plane (outbox
//	                and driver-inbox depths)
//	/debug/trace    the trace ring as JSONL (requires a *trace.Ring or
//	                other Snapshotter as the node's Tracer)
//	/debug/pprof/   the standard Go profiling endpoints
//
// The handler is safe to serve while the protocol runs: /metrics reads
// atomic instruments, /debug/trace snapshots the ring under its own
// lock, /debug/rtnet reads the outbox and inbox lengths under their locks,
// and /debug/lwg hops onto the protocol loop for a consistent view.
func (n *Node) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", n.serveMetrics)
	mux.HandleFunc("/debug/lwg", n.serveLWG)
	mux.HandleFunc("/debug/rtnet", n.serveRTNet)
	mux.HandleFunc("/debug/trace", n.serveTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (n *Node) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := n.Registry()
	if reg == nil {
		http.Error(w, "metrics disabled (NodeConfig.Metrics is nil)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WriteText(w)
	// The trace ring lives outside the registry; surface its overwrite
	// count so a scraper can tell when /debug/trace history is partial
	// (a stitched op with missing legs then means "ring wrapped", not
	// "protocol bug").
	if ring, ok := n.cfg.Tracer.(*trace.Ring); ok {
		fmt.Fprintf(w, "# TYPE trace_ring_dropped_total counter\ntrace_ring_dropped_total %d\n", ring.Dropped())
		fmt.Fprintf(w, "# TYPE trace_ring_events_total counter\ntrace_ring_events_total %d\n", ring.Total())
	}
}

func (n *Node) serveRTNet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(n.tr.PipelineStats())
}

func (n *Node) serveTrace(w http.ResponseWriter, _ *http.Request) {
	snap, ok := n.cfg.Tracer.(trace.Snapshotter)
	if !ok {
		http.Error(w, "tracing disabled (Tracer is not a Snapshotter)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = trace.WriteJSONL(w, snap.Snapshot())
}

// DebugLWG is the JSON shape of /debug/lwg. It is exported so the
// collector (internal/collect) can decode node snapshots with the same
// struct the node encodes.
type DebugLWG struct {
	PID  ids.ProcessID   `json:"pid"`
	LWGs []DebugLWGEntry `json:"lwgs"`
	HWGs []string        `json:"hwgs"`
}

// DebugLWGEntry is one light-weight group in a DebugLWG snapshot.
type DebugLWGEntry struct {
	LWG     string   `json:"lwg"`
	View    string   `json:"view,omitempty"`
	Members []string `json:"members,omitempty"`
	HWG     string   `json:"hwg,omitempty"`
	Coord   bool     `json:"coordinator"`
}

func (n *Node) serveLWG(w http.ResponseWriter, _ *http.Request) {
	var out DebugLWG
	ran := false
	n.Do(func(ep *core.Endpoint) {
		ran = true
		out.PID = ep.PID()
		for _, lwg := range ep.LWGs() {
			e := DebugLWGEntry{LWG: string(lwg), Coord: ep.IsLWGCoordinator(lwg)}
			if v, ok := ep.LWGView(lwg); ok {
				e.View = v.ID.String()
				for _, m := range v.Members {
					e.Members = append(e.Members, m.String())
				}
			}
			if hwg, ok := ep.Mapping(lwg); ok {
				e.HWG = hwg.String()
			}
			out.LWGs = append(out.LWGs, e)
		}
		for _, h := range ep.HWGs() {
			out.HWGs = append(out.HWGs, h.String())
		}
	})
	if !ran {
		http.Error(w, "node closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
