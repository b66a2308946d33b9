// Command lwgcheck sweeps the light-weight group stack through seeded
// random chaos schedules, verifies the paper's safety properties with the
// invariant checker (internal/check), and shrinks any failing schedule to
// a minimal reproducer.
//
// Usage:
//
//	lwgcheck -seeds 1000                # sweep seeds 1..1000
//	lwgcheck -seeds 50 -nodes 12 -ops 100 -duration 45s
//	lwgcheck -replay failing.schedule   # re-run a printed reproducer
//
// -faults injects loss, duplication, reordering, delay jitter and one-way
// link blocks (grammar: faults.Parse) on either clock; each schedule
// carries its spec on a faults line, and a replay honours it. The
// simulator runs clean by default. With -rtnet the same schedules run
// against a live loopback cluster of rtnet nodes over real UDP, under
// light default faults and asymmetric partitions:
//
//	lwgcheck -seeds 100 -faults loss=0.02   # lossy virtual-time sweep
//	lwgcheck -rtnet -seeds 100              # real-network sweep, default faults
//	lwgcheck -rtnet -faults 'loss=0.1,delay=1ms..5ms' -par 8
//	lwgcheck -rtnet -replay failing.schedule
//
// With -enumerate the random sweep is replaced by bounded model checking:
// every reachable operation interleaving of a small scope is executed,
// state-digest pruning closes the search, and every reached state must
// pass the safety checks and reconverge after a heal (the liveness bound):
//
//	lwgcheck -enumerate -scope n3g2 -depth 12
//	lwgcheck -enumerate -scope n4g2c1 -budget 2000 -checkpoint sweep.ckpt
//	lwgcheck -enumerate -scope n3g2 -depth 8 -par 8 -por=false -probe-memo=false
//
// The sweep runs -par expansion workers (default GOMAXPROCS) with
// partial-order reduction and probe memoisation on; results are
// identical at every -par value, and -por=false -probe-memo=false
// reproduces the original exhaustive sweep exactly (see DESIGN §7).
//
// On failure the reproducer is printed in the replayable schedule format
// and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"plwg/internal/check"
	"plwg/internal/explore"
	"plwg/internal/faults"
	"plwg/internal/trace"
)

// defaultRTFaults is the stock real-network fault schedule: light loss,
// duplication, heavy reordering and delay jitter on every link (the
// asymmetric partitions come from the schedules' part ops).
const defaultRTFaults = "loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lwgcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lwgcheck", flag.ContinueOnError)
	seeds := fs.Int("seeds", 100, "number of seeds to sweep")
	start := fs.Int64("start", 1, "first seed")
	nodes := fs.Int("nodes", 8, "cluster size")
	ops := fs.Int("ops", 60, "operations per schedule")
	lwgs := fs.Int("lwgs", 3, "light-weight groups per schedule")
	crashes := fs.Int("crashes", 2, "crash budget per schedule")
	duration := fs.Duration("duration", 0, "quiescence window after the final heal (0 = default 30s)")
	replay := fs.String("replay", "", "replay a schedule file instead of sweeping")
	noShrink := fs.Bool("noshrink", false, "report failures without shrinking")
	verbose := fs.Bool("v", false, "print one line per seed")
	rtMode := fs.Bool("rtnet", false, "run schedules over real UDP (loopback cluster) instead of the simulator")
	faultSpec := fs.String("faults", "", "fault spec installed on every link, on either clock (grammar: faults.Parse; default clean, or '"+defaultRTFaults+"' with -rtnet)")
	rtScale := fs.Float64("rtscale", 0.1, "virtual-to-real time scale for -rtnet op delays")
	par := fs.Int("par", max(1, runtime.NumCPU()/2), "concurrent schedules for -rtnet; expansion workers for -enumerate (default GOMAXPROCS there)")
	traceOut := fs.String("trace", "", "export one run's trace events to this file (.json = Chrome trace, otherwise JSONL) and explain the stitched protocol operations; a sweep exports its first failing run, or the last seed when all pass")
	enum := fs.Bool("enumerate", false, "bounded model checking: enumerate every schedule of a small scope instead of sweeping random seeds")
	scope := fs.String("scope", "n3g2", "enumeration scope, n<nodes>g<groups>[c<crashes>]")
	depth := fs.Int("depth", 12, "enumeration op-prefix depth bound")
	budget := fs.Int("budget", 0, "enumeration run budget per invocation (0 = run until the scope is swept)")
	checkpoint := fs.String("checkpoint", "", "enumeration checkpoint file: resumed when present, written when the budget stops the sweep early")
	por := fs.Bool("por", true, "enumeration: partial-order reduction (sleep sets); -por=false sweeps the unreduced graph")
	probeMemo := fs.Bool("probe-memo", true, "enumeration: probe-trajectory memoisation; -probe-memo=false runs every liveness probe concretely")
	progressIv := fs.Duration("progress", 0, "enumeration: emit a heartbeat line (states, states/sec, frontier, memo-hit rate) at this interval (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *enum {
		// -par doubles as the expansion worker count, but its rtnet-sized
		// default is wrong here: enumeration workers are CPU bound, so an
		// unset flag means one worker per available CPU.
		enumPar := runtime.GOMAXPROCS(0)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "par" {
				enumPar = *par
			}
		})
		return runEnumerate(out, enumOpts{
			scope:      *scope,
			depth:      *depth,
			budget:     *budget,
			checkpoint: *checkpoint,
			traceOut:   *traceOut,
			noShrink:   *noShrink,
			verbose:    *verbose,
			par:        enumPar,
			por:        *por,
			probeMemo:  *probeMemo,
			progress:   *progressIv,
		})
	}
	// Real-network runs are wall-clock bound, so the sweep defaults shrink
	// to keep a 100-seed pass in the minutes range, and real links get the
	// default fault mix. Explicit flags win.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *rtMode {
		if !set["faults"] {
			*faultSpec = defaultRTFaults
		}
		if !set["nodes"] {
			*nodes = 5
		}
		if !set["ops"] {
			*ops = 30
		}
		if !set["lwgs"] {
			*lwgs = 2
		}
		if !set["crashes"] {
			*crashes = 1
		}
	}
	rtOpts := explore.RTOptions{Scale: *rtScale}
	if _, err := faults.Parse(*faultSpec); err != nil {
		return err
	}
	if *nodes < 2 || *nodes > explore.MaxNodes {
		// Above MaxNodes a printed reproducer would not parse back.
		return fmt.Errorf("-nodes must be between 2 and %d (got %d)", explore.MaxNodes, *nodes)
	}
	if *lwgs < 1 {
		return fmt.Errorf("-lwgs must be at least 1 (got %d)", *lwgs)
	}
	if *ops < 0 || *seeds < 0 || *crashes < 0 {
		return fmt.Errorf("-ops, -seeds and -crashes must not be negative")
	}

	if *replay != "" {
		text, err := os.ReadFile(*replay)
		if err != nil {
			return err
		}
		s, err := explore.Parse(string(text))
		if err != nil {
			return err
		}
		var r explore.Result
		if *rtMode {
			r, err = explore.RunRT(s, rtOpts)
			if err != nil {
				return err
			}
		} else {
			r = explore.Run(s)
		}
		report(out, s, r, *rtMode)
		if err := exportTrace(out, *traceOut, r.World.Events); err != nil {
			return err
		}
		if r.Failed() {
			return fmt.Errorf("schedule failed")
		}
		fmt.Fprintf(out, "schedule passed (%d trace events)\n", len(r.World.Events))
		return nil
	}

	cfg := explore.GenConfig{
		Nodes:   *nodes,
		Ops:     *ops,
		LWGs:    *lwgs,
		Crashes: *crashes,
		Quiesce: *duration,
		Faults:  *faultSpec,
	}
	swept := 0
	// With -trace, keep the events worth explaining: the first failure
	// wins (that is the run someone will want to reconstruct), otherwise
	// the last seed's events. Sweep progress callbacks are serialized,
	// so plain captures are safe even for the parallel -rtnet sweep.
	var traceEvents []trace.Event
	traceLocked := false
	progress := func(seed int64, r explore.Result) {
		swept++
		if *traceOut != "" && !traceLocked {
			traceEvents = r.World.Events
			if r.Failed() {
				traceLocked = true
			}
		}
		if *verbose || r.Failed() {
			status := "ok"
			if r.Failed() {
				status = fmt.Sprintf("FAIL (%d violations, completed=%v)",
					len(r.Violations), r.Completed)
			}
			fmt.Fprintf(out, "seed %d: %s\n", seed, status)
		}
		// Real-network failures can be load-sensitive and vanish on the
		// replay that builds the final report, so print the violations
		// from the original run while we have them.
		if r.Failed() && len(r.Violations) > 0 {
			fmt.Fprintf(out, "%s", check.Summary(r.Violations))
		}
	}
	var failing []explore.Schedule
	if *rtMode {
		var err error
		failing, err = explore.SweepRT(*start, *seeds, cfg, rtOpts, *par, progress)
		if err != nil {
			return err
		}
	} else {
		failing = explore.Sweep(*start, *seeds, cfg, progress)
	}
	fmt.Fprintf(out, "%d seeds swept, %d failing\n", swept, len(failing))
	if err := exportTrace(out, *traceOut, traceEvents); err != nil {
		return err
	}
	if len(failing) == 0 {
		return nil
	}

	// Shrink and print a reproducer for the first failure; the rest are
	// listed by seed only.
	runOnce := func(c explore.Schedule) explore.Result {
		if *rtMode {
			r, err := explore.RunRT(c, rtOpts)
			if err != nil {
				return explore.Result{}
			}
			return r
		}
		return explore.Run(c)
	}
	s := failing[0]
	if !*noShrink {
		fmt.Fprintf(out, "shrinking seed %d (%d ops)...\n", s.Seed, len(s.Ops))
		s = explore.Shrink(s, func(c explore.Schedule) bool {
			return runOnce(c).Failed()
		})
	}
	report(out, s, runOnce(s), *rtMode)
	if len(failing) > 1 {
		fmt.Fprintf(out, "other failing seeds:")
		for _, f := range failing[1:] {
			fmt.Fprintf(out, " %d", f.Seed)
		}
		fmt.Fprintln(out)
	}
	return fmt.Errorf("%d of %d seeds failed", len(failing), swept)
}

// explainLimit caps how many stitched operations the explain mode
// prints; the exported file always holds everything.
const explainLimit = 12

// exportTrace writes the events to path (Chrome trace for .json, JSONL
// otherwise) and prints the explain summary: every multi-node protocol
// operation stitched out of the event stream, up to explainLimit.
func exportTrace(out io.Writer, path string, events []trace.Event) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteChromeTrace(f, events)
	} else {
		err = trace.WriteJSONL(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("export trace %q: %w", path, err)
	}
	ops := trace.Stitch(events)
	fmt.Fprintf(out, "trace: %d events -> %s (%d stitched ops)\n", len(events), path, len(ops))
	printed := 0
	for _, op := range ops {
		if len(op.Nodes) < 2 {
			continue // single-node ops add noise, not causality
		}
		if printed == explainLimit {
			fmt.Fprintf(out, "... (explain output capped at %d ops; the full trace is in %s)\n", explainLimit, path)
			break
		}
		fmt.Fprint(out, trace.Explain(op))
		printed++
	}
	return nil
}

func report(out io.Writer, s explore.Schedule, r explore.Result, rtnet bool) {
	if !r.Completed {
		fmt.Fprintf(out, "run did not complete within the step budget (livelock?)\n")
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(out, "violations:\n%s", check.Summary(r.Violations))
	}
	if r.Failed() {
		fmt.Fprintf(out, "reproducer:\n%s", explore.Reproducer(s, rtnet))
	}
}
