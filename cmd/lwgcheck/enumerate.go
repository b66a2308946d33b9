package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"plwg/internal/explore"
	"plwg/internal/metrics"
)

// enumOpts carries the -enumerate flag values.
type enumOpts struct {
	scope      string
	depth      int
	budget     int
	checkpoint string
	traceOut   string
	noShrink   bool
	verbose    bool
	par        int
	por        bool
	probeMemo  bool
	progress   time.Duration
}

// runEnumerate is the -enumerate mode: sweep the scope's state graph,
// report coverage, and shrink the first wedge into a reproducer.
func runEnumerate(out io.Writer, o enumOpts) error {
	sc, err := explore.ParseScope(o.scope)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	cfg := explore.EnumConfig{
		Scope:     sc,
		Depth:     o.depth,
		Budget:    o.budget,
		Par:       o.par,
		POR:       o.por,
		ProbeMemo: o.probeMemo,
		Progress:  o.progress,
		Metrics:   reg,
		Log: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
	if o.checkpoint != "" {
		text, err := os.ReadFile(o.checkpoint)
		switch {
		case err == nil:
			cp, err := explore.ParseCheckpoint(string(text))
			if err != nil {
				return err
			}
			if cp.Scope.String() != sc.String() || cp.Depth != o.depth {
				return fmt.Errorf("checkpoint %s is for scope %s depth %d, not %s depth %d",
					o.checkpoint, cp.Scope, cp.Depth, sc, o.depth)
			}
			// The pruning layers decide which states ever enter the visited
			// and memo sets, so they are part of the sweep's identity: a
			// checkpoint taken with different flags describes a different
			// (but equally sound) sweep and cannot be continued under these.
			if cp.POR != o.por || cp.ProbeMemo != o.probeMemo {
				return fmt.Errorf("checkpoint %s was taken with -por=%v -probe-memo=%v; rerun with those flags or delete it",
					o.checkpoint, cp.POR, cp.ProbeMemo)
			}
			cfg.Resume = cp
			fmt.Fprintf(out, "resuming from %s: %d states visited, frontier %d\n",
				o.checkpoint, cp.Stats.Visited, len(cp.Frontier))
		case !os.IsNotExist(err):
			return err
		}
	}

	res := explore.Enumerate(cfg)
	st := res.Stats
	fmt.Fprintf(out, "scope %s depth %d: %d states visited, %d pruned, %d runs, deepest %d\n",
		sc, o.depth, st.Visited, st.Pruned, st.Runs, st.Deepest)
	if o.verbose {
		_ = reg.WriteText(out)
	}

	if o.checkpoint != "" {
		if res.Checkpoint != nil {
			if err := os.WriteFile(o.checkpoint,
				[]byte(explore.EncodeCheckpoint(res.Checkpoint)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "checkpoint written to %s (frontier %d)\n",
				o.checkpoint, len(res.Checkpoint.Frontier))
		} else if res.Swept {
			// The sweep is done; a stale checkpoint would make the next
			// invocation a no-op.
			_ = os.Remove(o.checkpoint)
		}
	}

	if len(res.Findings) == 0 {
		if res.Swept {
			fmt.Fprintf(out, "scope swept clean\n")
		} else {
			fmt.Fprintf(out, "budget exhausted before the scope was swept (resume with -checkpoint)\n")
		}
		return nil
	}

	f := res.Findings[0]
	fmt.Fprintf(out, "%d findings; first at depth %d\n", len(res.Findings), len(f.Schedule.Ops))
	s := f.Schedule
	if !o.noShrink {
		fmt.Fprintf(out, "shrinking (%d ops)...\n", len(s.Ops))
		s = explore.Shrink(s, func(c explore.Schedule) bool {
			return explore.Run(c).Failed()
		})
	}
	report(out, s, explore.Run(s), false)
	if err := exportTrace(out, o.traceOut, f.Result.World.Events); err != nil {
		return err
	}
	return fmt.Errorf("%d findings in scope %s", len(res.Findings), sc)
}
