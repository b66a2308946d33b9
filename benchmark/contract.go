package main

import (
	"encoding/json"
	"fmt"
)

// The two metric tables below are the Go side of BENCHMARK.json; a test
// keeps the file and the tables equal.

// endToEnd lists what a user of the group service sees, with the share
// of the parent's median by which each may worsen. Every contract
// workload reports every one of them: the rt workloads on the wall
// clock, sim-churn with latency on the virtual clock and rates per wall
// second of simulation.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "delivered_msgs_per_s", Unit: "msgs/s", Better: "higher", Bound: 0.25},
	{Name: "oneway_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "oneway_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_msg", Unit: "us", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, reported by the traced
// run. They have no bound in the contract; the ones that carry one here
// are end-to-end for a single workload (sim-churn's control plane, the
// enumerator's rate) and --compare judges them by it.
var perLayer = []metricDef{
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.send_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.windows_repeated", Unit: "count", Better: "lower"},
	{Name: "bench.seconds_stolen", Unit: "count", Better: "lower"},
	{Name: "bench.cycles_stolen", Unit: "count", Better: "lower"},

	{Name: "core.batch_msgs_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "core.batch_bytes_per_flush", Unit: "B", Better: "higher"},
	{Name: "core.hwg_sends_per_lwg_send", Unit: "ratio", Better: "lower"},
	{Name: "core.lwg_minus_hwg_oneway_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.wall_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "core.view_installs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.switches_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.merges_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.flush_rounds_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.preinstall_drops", Unit: "count", Better: "lower"},

	{Name: "vsync.wall_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "vsync.frames_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "vsync.retrans_per_kmsg", Unit: "ratio", Better: "lower"},
	{Name: "vsync.nacks_per_kmsg", Unit: "ratio", Better: "lower"},
	{Name: "vsync.suspects", Unit: "count", Better: "lower"},
	{Name: "vsync.flush_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "vsync.hwg_view_installs_per_cycle", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.gob_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.gob_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},

	{Name: "rtnet.echo_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtnet.echo_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "rtnet.echo_msgs_per_s", Unit: "msgs/s", Better: "higher"},
	{Name: "rtnet.echo_32k_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtnet.driver_call_us", Unit: "us", Better: "lower"},
	{Name: "rtnet.datagrams_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "rtnet.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "rtnet.send_ring_depth_max", Unit: "count", Better: "lower"},
	{Name: "rtnet.decode_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "rtnet.send_ring_overflow", Unit: "count", Better: "lower"},
	{Name: "rtnet.send_errors", Unit: "count", Better: "lower"},
	{Name: "rtnet.malformed", Unit: "count", Better: "lower"},

	{Name: "naming.sync_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "naming.sync_wall_us_per_round", Unit: "us", Better: "lower"},
	{Name: "naming.heal_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "naming.client_retries", Unit: "count", Better: "lower"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.join_p50_ms", Unit: "ms", Better: "lower", Bound: 0.02},
	{Name: "sim.split_converge_ms", Unit: "ms", Better: "lower", Bound: 0.02},
	{Name: "sim.heal_converge_ms", Unit: "ms", Better: "lower", Bound: 0.02},
	{Name: "sim.crash_recover_ms", Unit: "ms", Better: "lower", Bound: 0.02},
	{Name: "sim.bystander_p99_ms", Unit: "ms", Better: "lower", Bound: 0.02},
	{Name: "sim.bus_frames_per_msg", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "sim.wall_ms_per_virtual_s", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "netsim.ctrl_bytes_share", Unit: "ratio", Better: "lower"},

	{Name: "explore.states_per_s", Unit: "states/s", Better: "higher", Bound: 0.05},
	{Name: "explore.runs_per_state", Unit: "ratio", Better: "lower"},
	{Name: "explore.memo_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "explore.ride_hits", Unit: "count", Better: "higher"},
	{Name: "explore.por_skipped", Unit: "count", Better: "higher"},
	{Name: "explore.speculation_waste", Unit: "count", Better: "lower"},
	{Name: "explore.world_run_us", Unit: "us", Better: "lower"},
	{Name: "check.run_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.traced_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.trace_events_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "obs.ring_dropped", Unit: "count", Better: "lower"},
}

// contractWorkloads are the workloads of BENCHMARK.json: the ones that
// can report every end-to-end metric and whose run-to-run spread the
// contract can bound. rt-saturate reports them too, but with both
// cores of the sizing host saturated its throughput wanders between
// 19 k and 30 k msgs/s for seconds at a time, and ten runs spread 16 %
// to 28 % where the contract allows a bound of 25 % at most.
var contractWorkloads = []string{"rt-paced", "rt-manygroups", "sim-churn"}

// contractLine renders a result as the driver's result object: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one. A layer the workload does not exercise reports zero; a
// missing end-to-end metric is an error.
func contractLine(r *Result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	contract := false
	for _, name := range contractWorkloads {
		contract = contract || name == r.Workload
	}
	if !contract {
		// Not one of the driver's workloads: report what there is.
		defs = nil
		for name, m := range r.Metrics {
			defs = append(defs, metricDef{Name: name, Unit: m.Unit})
		}
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok && !r.Traced {
			return "", fmt.Errorf("%s did not report %s", r.Workload, d.Name)
		}
		ms[d.Name] = value{m.Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(b), err
}
