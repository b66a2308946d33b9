// Command lwgbench regenerates the paper's evaluation (Section 3.3,
// Figure 2): for every point of the groups-per-set sweep it builds the
// three configurations — no LWG service, static LWG service, dynamic LWG
// service — on the simulated 10 Mbps shared Ethernet and measures
// data-transfer latency, throughput and crash-recovery time.
//
// It also runs the fig-scale sweep: what the naming service's
// digest/delta anti-entropy costs per round, and how long a heal takes to
// converge, as the number of light-weight groups grows.
//
// Everything here runs on the virtual clock, so every number is exact
// per seed. Wall-clock measurement (the real-UDP data plane, the codecs,
// the enumerator) lives in benchmark/.
//
// Usage:
//
//	lwgbench -experiment fig2-latency|fig2-throughput|fig2-recovery|fig-scale|all
//	         [-ns 1,2,4,8,16,32] [-groups 64,256,1024,4096]
//	         [-seed 1] [-measure 5s] [-json BENCH_plwg.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -json, the full sweep runs and the results are written as a flat
// machine-readable record list. The committed BENCH_plwg.json is that
// file at the default flags: CI regenerates it and compares byte for
// byte, so a record that moves is a behaviour change. The profile flags
// write pprof data for the run (the memory profile is taken at exit).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"plwg/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lwgbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("lwgbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all",
		"fig2-latency | fig2-throughput | fig2-recovery | fig-scale | all")
	nsFlag := fs.String("ns", "1,2,4,8,16,32", "comma-separated groups-per-set sweep")
	groupsFlag := fs.String("groups", "64,256,1024,4096",
		"comma-separated LWG-count sweep for fig-scale")
	seed := fs.Int64("seed", 1, "simulation seed (runs are deterministic per seed)")
	measure := fs.Duration("measure", 5*time.Second, "virtual measurement window")
	jsonPath := fs.String("json", "", "write machine-readable results to this file and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns, err := parseNs(*nsFlag)
	if err != nil {
		return err
	}
	groups, err := parseNs(*groupsFlag)
	if err != nil {
		return err
	}
	d := bench.DefaultDurations()
	d.Measure = *measure

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lwgbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lwgbench: memprofile:", err)
			}
		}()
	}

	if *jsonPath != "" {
		return writeJSON(*jsonPath, ns, groups, *seed, d, out)
	}

	fmt.Fprintf(out, "plwg evaluation — %d-node simulated 10 Mbps shared Ethernet, seed %d\n",
		8, *seed)
	fmt.Fprintf(out, "configurations: no-lwg (one HWG per group), static-lwg (all groups on one HWG),\n")
	fmt.Fprintf(out, "                dynamic-lwg (this library)\n\n")

	switch *experiment {
	case "fig2-latency":
		bench.Figure2Latency(out, ns, *seed, d)
	case "fig2-throughput":
		bench.Figure2Throughput(out, ns, *seed, d)
	case "fig2-recovery":
		bench.Figure2Recovery(out, ns, *seed, d)
	case "fig-scale":
		bench.FigScale(out, groups, *seed, d)
	case "all":
		bench.Figure2Latency(out, ns, *seed, d)
		fmt.Fprintln(out)
		bench.Figure2Throughput(out, ns, *seed, d)
		fmt.Fprintln(out)
		bench.Figure2Recovery(out, ns, *seed, d)
		fmt.Fprintln(out)
		bench.FigScale(out, groups, *seed, d)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// writeJSON runs the Figure 2, fig-scale and observability sweeps and
// writes the flat record list (mode × metric × value).
func writeJSON(path string, ns, groups []int, seed int64, d bench.Durations, out *os.File) error {
	fmt.Fprintf(out, "writing %s (sweep %v, groups %v, seed %d, measure %v)\n",
		path, ns, groups, seed, d.Measure)
	rep := bench.ExactReport(out, ns, groups, seed, d)
	if err := bench.WriteReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d records\n", len(rep.Records))
	return nil
}

func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sweep value %q", part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return ns, nil
}
