// Command benchmark is the repository's benchmark: named workloads on
// the wall clock (real-UDP rtnet) and the virtual clock (the Figure 2
// simulator), each also a correctness check, and a traced run that
// prices every layer from outside. See README.md.
//
// The driver's contract (BENCHMARK.json):
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output. Without
// --workload every workload runs and a table and a report are printed;
// --compare a.jsonl b.jsonl compares two sets of such reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workloads lists every workload in running order with the reason it
// exists. The first four share one metric vocabulary and are the
// contract's workloads; check-enumerate reports the enumerator's own.
var workloads = []struct{ name, why string }{
	{"rt-paced", "open loop at a fifth of capacity: latency is timers, batch dwell and wake-ups, so a pure CPU saving predicts no latency change"},
	{"rt-saturate", "closed loop of 1 KiB messages with both cores busy: prices codec, syscalls and the pipeline per message"},
	{"rt-manygroups", "48 groups on one HWG, 64 B messages: packing does the work and bytes almost none, so a per-byte saving predicts no change"},
	{"sim-churn", "control plane on the virtual clock: joins, partition with conflicting mappings, heal, crash; an rt-only change predicts no change"},
	{"check-enumerate", "bounded model checking of scope n3g2: the enumerator's states per second; a data-plane change predicts no change"},
}

// heapBallast is live, pointer-free and never touched (so never
// resident): it puts the collector's heap goal far above the few
// megabytes the stack keeps live. At the default pacing rt-saturate
// starts at about 150 collections a second and speeds up twofold over
// 45 s as its live heap creeps from 7 to 24 MB, so no run length gives
// a steady number; with the ballast the collector runs about once a
// second in every workload.
const heapBallast = 64 << 20

// run runs one workload; traced, it reports the workload's share of
// the per-layer metrics.
func run(name string, seed int64, seconds int, traced bool, spanFile string) (*Result, error) {
	switch name {
	case "rt-paced", "rt-saturate", "rt-manygroups":
		return runRTWorkload(name, seed, seconds, traced, spanFile)
	case "sim-churn":
		return runSimChurn(seed, seconds, traced), nil
	case "check-enumerate":
		return runEnumerate(enumDepth(seconds), traced)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runLayerSuite runs what a traced run measures whatever the workload:
// the layer ceilings and a traced sweep of the enumerator.
func runLayerSuite() (*Result, error) {
	res, err := runEnumerate(5, true)
	if err != nil {
		return nil, err
	}
	res.Workload = "layers"
	return res, runLayers(res)
}

// runRTWorkload runs an rt workload untraced, or, traced, half the time
// untraced and half traced so that the overhead of tracing has its base
// in the same process.
func runRTWorkload(name string, seed int64, seconds int, traced bool, spanFile string) (*Result, error) {
	if !traced {
		res, _, err := runRT(name, seed, seconds, false)
		return res, err
	}
	half := (seconds + 1) / 2
	plain, _, err := runRT(name, seed, half, false)
	if err != nil {
		return nil, err
	}
	with, window, err := runRT(name, seed, half, true)
	if err != nil {
		return nil, err
	}
	res := newResult(name)
	res.Traced = true
	res.Attempted, res.Failed = with.Attempted, with.Failed
	res.Correct = plain.Correct && with.Correct
	res.Violations = append(plain.Violations, with.Violations...)
	for _, name := range []string{"bench.join_p50_ms", "bench.windows_repeated", "bench.seconds_stolen"} {
		res.Metrics[name] = with.Metrics[name]
	}
	spans := rtLayerMetrics(window, res)
	if base := plain.Metrics["cpu_us_per_msg"].Value; base > 0 {
		res.set("obs.traced_overhead_pct", "%", 100*(with.Metrics["cpu_us_per_msg"].Value-base)/base, 1)
	}
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	res.note("%d spans written to %s", len(spans), spanFile)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all five, with a table and a report)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 20, "length of the measure window")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		out      = flag.String("out", "", "span file of the traced run (default .bench_build/spans-<workload>.jsonl)")
		cmp      = flag.Bool("compare", false, "compare two files of reports: --compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal(2, "--compare takes two report files")
		}
		regressed, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fatal(2, "--seconds must be at least 1 and there are no positional arguments")
	}
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)

	spanFile := func(name string) string {
		if *out != "" {
			return *out
		}
		return filepath.Join(".bench_build", "spans-"+name+".jsonl")
	}
	if *workload != "" {
		res, err := run(*workload, *seed, *seconds, *trace == 1, spanFile(*workload))
		if err != nil {
			fatal(1, "%s: %v", *workload, err)
		}
		if res.Traced {
			layers, err := runLayerSuite()
			if err != nil {
				fatal(1, "layers: %v", err)
			}
			res.absorb(layers)
		}
		printTable(os.Stderr, res)
		line, err := contractLine(res)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rep := Report{Host: hostBlock(), Seed: *seed, Seconds: *seconds}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s, seed %d\n%s\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.Commit, *seed, rep.Host.Environment)
	ok := true
	for _, w := range workloads {
		res, err := run(w.name, *seed, *seconds, *trace == 1, spanFile(w.name))
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		printTable(os.Stdout, res)
		rep.Results = append(rep.Results, res)
		ok = ok && res.Correct
	}
	if *trace == 1 {
		layers, err := runLayerSuite()
		if err != nil {
			fatal(1, "layers: %v", err)
		}
		printTable(os.Stdout, layers)
		rep.Results = append(rep.Results, layers)
		ok = ok && layers.Correct
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
