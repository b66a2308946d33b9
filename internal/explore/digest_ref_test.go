package explore

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"plwg/internal/ids"
)

// digestReference is the original fmt/strings.Builder implementation of
// world.digest, kept verbatim as the oracle for the optimised rendering.
// Digests are persisted in sweep checkpoints, so the byte layout (down to
// the historical "ns pp0" quirk) must never drift: a single changed byte
// would silently invalidate every in-flight checkpoint's visited set.
func digestReference(w *world) uint64 {
	views := make(map[ids.ViewID]int)
	hwgs := make(map[ids.HWGID]int)
	view := func(v ids.ViewID) string {
		if v.IsZero() {
			return "-"
		}
		i, ok := views[v]
		if !ok {
			i = len(views)
			views[v] = i
		}
		return fmt.Sprintf("v%d", i)
	}
	hwg := func(h ids.HWGID) string {
		if h == ids.NoHWG {
			return "-"
		}
		i, ok := hwgs[h]
		if !ok {
			i = len(hwgs)
			hwgs[h] = i
		}
		return fmt.Sprintf("h%d", i)
	}

	var b strings.Builder
	lwgs := append([]ids.LWGID(nil), w.sched.LWGs...)
	sort.Slice(lwgs, func(i, j int) bool { return lwgs[i] < lwgs[j] })

	fmt.Fprintf(&b, "cut=%d\n", w.cut)
	for i := 0; i < w.sched.Nodes; i++ {
		pid := ids.ProcessID(i)
		ep := w.Endpoints[i]
		fmt.Fprintf(&b, "p%d crashed=%v\n", i, w.crashed[pid])
		if w.crashed[pid] {
			continue
		}
		for _, l := range lwgs {
			phase := ep.LWGPhase(l)
			if phase == "" {
				continue
			}
			fmt.Fprintf(&b, " lwg %s %s", l, phase)
			if v, ok := ep.LWGView(l); ok {
				fmt.Fprintf(&b, " %s%v", view(v.ID), v.Members)
			}
			if h, ok := ep.Mapping(l); ok {
				fmt.Fprintf(&b, " on %s", hwg(h))
			}
			if n := ep.PreInstallBuffered(l); n > 2 {
				b.WriteString(" buf=2+")
			} else if n > 0 {
				fmt.Fprintf(&b, " buf=%d", n)
			}
			b.WriteByte('\n')
		}
		stack := ep.HWGStack()
		for _, g := range stack.Groups() {
			v, ok := stack.CurrentView(g)
			if !ok {
				fmt.Fprintf(&b, " hwg %s joining\n", hwg(g))
				continue
			}
			fmt.Fprintf(&b, " hwg %s %s%v\n", hwg(g), view(v.ID), v.Members)
		}
	}
	for _, srv := range sortedServerPids(w.Servers) {
		db := w.Servers[srv].DB()
		fmt.Fprintf(&b, "ns p%v\n", srv)
		for _, l := range db.LWGs() {
			for _, e := range db.Live(l) {
				fmt.Fprintf(&b, " map %s %s -> %s\n", l, view(e.View), hwg(e.HWG))
			}
		}
	}

	h := fnv.New64a()
	_, _ = h.Write([]byte(b.String()))
	return h.Sum64()
}

// TestDigestMatchesReference walks real schedules step by step and
// compares the optimised digest against the pinned reference at every
// state, including mid-probe states (partitions, crashes, buffered
// backlogs and multi-view naming databases all appear along the way).
func TestDigestMatchesReference(t *testing.T) {
	check := func(t *testing.T, w *world, at string) {
		t.Helper()
		got, want := w.digest(), digestReference(w)
		if got != want {
			t.Fatalf("digest diverged from reference at %s: %x != %x\nrendering:\n%s",
				at, got, want, w.dbuf)
		}
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			s := Random(seed, GenConfig{Nodes: 4, Ops: 25, LWGs: 2, Crashes: 1})
			w := newWorld(s)
			for i, op := range s.Ops {
				w.advance(op.Delay)
				if !w.completed {
					break
				}
				w.apply(op)
				check(t, w, fmt.Sprintf("seed %d op %d", seed, i))
			}
		}
	})
	t.Run("enumerated", func(t *testing.T) {
		sc, err := ParseScope("n3g2c1")
		if err != nil {
			t.Fatal(err)
		}
		prefix := []Op{
			{Delay: sc.OpDelay, Kind: OpJoin, P: 0, LWG: "a"},
			{Delay: sc.OpDelay, Kind: OpJoin, P: 1, LWG: "b"},
			{Delay: sc.Settle, Kind: OpWait},
			{Delay: sc.OpDelay, Kind: OpPart, Cut: 1},
			{Delay: sc.OpDelay, Kind: OpJoin, P: 2, LWG: "a"},
			{Delay: sc.OpDelay, Kind: OpCrash, P: 2},
			{Delay: sc.OpDelay, Kind: OpHeal},
			{Delay: sc.Settle, Kind: OpWait},
		}
		w := newWorld(sc.schedule(prefix))
		for i, op := range prefix {
			w.advance(op.Delay)
			if !w.completed {
				t.Fatalf("prefix livelocked at op %d", i)
			}
			w.apply(op)
			check(t, w, fmt.Sprintf("op %d", i))
		}
		// Probe trajectory states (the memoisation digests these).
		w.heal()
		for chunk := 1; chunk <= 4; chunk++ {
			w.advance(sc.Settle)
			check(t, w, fmt.Sprintf("probe chunk %d", chunk))
		}
	})
}
