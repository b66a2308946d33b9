package explore

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// enumEqual asserts two sweep results are identical: stats, swept
// verdict, findings (by schedule and violation shape) and — when present
// — the checkpoint's exact encoded bytes.
func enumEqual(t *testing.T, label string, a, b EnumResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, a.Stats, b.Stats)
	}
	if a.Swept != b.Swept {
		t.Fatalf("%s: swept differs: %v vs %v", label, a.Swept, b.Swept)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("%s: finding counts differ: %d vs %d", label, len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if Encode(a.Findings[i].Schedule) != Encode(b.Findings[i].Schedule) {
			t.Fatalf("%s: finding %d schedules differ", label, i)
		}
		if len(a.Findings[i].Result.Violations) != len(b.Findings[i].Result.Violations) {
			t.Fatalf("%s: finding %d violation counts differ", label, i)
		}
	}
	switch {
	case a.Checkpoint == nil && b.Checkpoint == nil:
	case a.Checkpoint == nil || b.Checkpoint == nil:
		t.Fatalf("%s: one result has a checkpoint, the other does not", label)
	default:
		ea, eb := EncodeCheckpoint(a.Checkpoint), EncodeCheckpoint(b.Checkpoint)
		if ea != eb {
			t.Fatalf("%s: checkpoints differ:\n%s\nvs\n%s", label, ea, eb)
		}
	}
}

// TestEnumerateParallelDeterminism: the worker pool must be invisible in
// the results — a -par 8 sweep is byte-identical to the serial one, with
// the pruning layers off and on, complete and budget-sliced. This is the
// contract that makes the parallel engine safe to use for real sweeps.
func TestEnumerateParallelDeterminism(t *testing.T) {
	scopes := []struct {
		name string
		cfg  EnumConfig
	}{
		{"n2g1-plain", EnumConfig{
			Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
			Depth: 4,
		}},
		{"n2g2-pruned", EnumConfig{
			Scope: Scope{Nodes: 2, Groups: 2, Quiesce: 8 * time.Second},
			Depth: 4, POR: true, ProbeMemo: true,
		}},
		{"n2g1-budget-slice", EnumConfig{
			Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
			Depth: 4, Budget: 40, POR: true, ProbeMemo: true,
		}},
	}
	for _, tc := range scopes {
		t.Run(tc.name, func(t *testing.T) {
			serial, par := tc.cfg, tc.cfg
			serial.Par = 1
			par.Par = 8
			enumEqual(t, tc.name, Enumerate(serial), Enumerate(par))
		})
	}
}

// TestEnumerateRecordsFindings: with a delivery suppression stamped into
// every enumerated schedule, a tiny scope fails on states whose probe
// delivers at node 0. The sweep must record the same findings at every
// worker count, report the scope swept only while it stayed under
// maxFindings (n2g1 does, n2g2 reaches it), and hand back schedules that
// fail again under Run. The pruning layers stay off: the digest
// abstracts the trace away, so a probe memo would count a state whose
// history holds the suppressed delivery as converged.
func TestEnumerateRecordsFindings(t *testing.T) {
	for _, groups := range []int{1, 2} {
		cfg := EnumConfig{
			Scope: Scope{Nodes: 2, Groups: groups, Quiesce: 8 * time.Second, fault: Fault{Node: 0, Drop: 1}},
			Depth: 4,
		}
		label := cfg.Scope.String()
		serial, par := cfg, cfg
		serial.Par = 1
		par.Par = 4
		res := Enumerate(serial)
		enumEqual(t, label, res, Enumerate(par))
		if len(res.Findings) == 0 {
			t.Fatalf("%s: no findings", label)
		}
		if res.Swept != (len(res.Findings) < maxFindings) {
			t.Fatalf("%s: %d findings but swept=%v", label, len(res.Findings), res.Swept)
		}
		if groups == 2 && len(res.Findings) != maxFindings {
			t.Fatalf("%s: %d findings, want the sweep stopped at %d", label, len(res.Findings), maxFindings)
		}
		for i, f := range res.Findings {
			if !Run(f.Schedule).Failed() {
				t.Errorf("%s: finding %d passes under Run:\n%s", label, i, Encode(f.Schedule))
			}
		}
	}
}

// replayWorld re-executes a prefix from a fresh world. Callers check
// w.completed to detect a livelocked prefix.
func replayWorld(sc Scope, ops []Op) *world {
	w := newWorld(sc.schedule(ops))
	play(w)
	return w
}

// TestRideEquivalence is the property behind settle-suffix riding
// (engine.go): for a healed state, the liveness probe's chunked timeline
// IS the wait-successor chain. Every healed state reached by a BFS over
// the scope must satisfy: probe chunk k's digest equals a fresh replay of
// prefix + k wait ops, the wait child's enabled set equals the parent's,
// and the chunked probe reaches the same verdict as the one-shot finish.
func TestRideEquivalence(t *testing.T) {
	sc, err := ParseScope("n2g2")
	if err != nil {
		t.Fatal(err)
	}
	wait := Op{Delay: sc.Settle, Kind: OpWait}
	frontier := [][]Op{nil}
	tested := 0
	for len(frontier) > 0 && tested < 12 {
		prefix := frontier[0]
		frontier = frontier[1:]
		w := replayWorld(sc, prefix)
		if !w.completed {
			continue
		}
		succ := w.enabledOps(sc)
		healed := w.cut == 0
		out := w.probe(sc, func(uint64) bool { return false })
		if out.hit != 0 {
			t.Fatalf("always-false memo produced a hit at prefix %v", prefix)
		}
		if healed && len(out.traj) >= 2 && out.res.Completed {
			// Chunk digests vs the wait-child chain (first two chunks).
			for k := 1; k <= 2; k++ {
				ops := append(append([]Op(nil), prefix...), wait)
				if k == 2 {
					ops = append(ops, wait)
				}
				child := replayWorld(sc, ops)
				if !child.completed {
					t.Fatalf("wait chain livelocked below healed prefix %v", prefix)
				}
				if got := child.digest(); got != out.traj[k-1] {
					t.Fatalf("prefix %v: probe chunk %d digest %x != wait-chain digest %x",
						prefix, k, out.traj[k-1], got)
				}
				if k == 1 {
					if childSucc := child.enabledOps(sc); !reflect.DeepEqual(childSucc, succ) {
						t.Fatalf("prefix %v: wait child enabled set differs from parent", prefix)
					}
				}
			}
			// Chunked probe verdict vs the one-shot finish().
			w2 := replayWorld(sc, prefix)
			res := w2.finish()
			if res.Completed != out.res.Completed || len(res.Violations) != len(out.res.Violations) {
				t.Fatalf("prefix %v: chunked probe verdict (%v/%d) != finish (%v/%d)",
					prefix, out.res.Completed, len(out.res.Violations),
					res.Completed, len(res.Violations))
			}
			tested++
		}
		if len(prefix) < 3 {
			for _, op := range succ {
				frontier = append(frontier, append(append([]Op(nil), prefix...), op))
			}
		}
	}
	if tested < 5 {
		t.Fatalf("too few healed states exercised: %d", tested)
	}
}

// TestMemoEquivalence: on a scope that sweeps clean, the probe memo is
// a pure accelerator — stats, findings and the swept verdict match the
// memo-off sweep exactly.
func TestMemoEquivalence(t *testing.T) {
	for _, scope := range []Scope{
		{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		{Nodes: 2, Groups: 2, Quiesce: 8 * time.Second},
	} {
		cfg := EnumConfig{Scope: scope, Depth: 4}
		plain := Enumerate(cfg)
		cfg.ProbeMemo = true
		memo := Enumerate(cfg)
		enumEqual(t, scope.String(), plain, memo)
	}
}

// TestPOREquivalence: partial-order reduction must not change what a
// sweep concludes — same findings, same swept verdict — while executing
// fewer prefixes on any scope with commutative structure to cut (g2+).
// On single-group scopes the filter never fires and the sweeps are
// identical.
func TestPOREquivalence(t *testing.T) {
	t.Run("n2g1-identical", func(t *testing.T) {
		cfg := EnumConfig{Scope: Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second}, Depth: 4}
		plain := Enumerate(cfg)
		cfg.POR = true
		por := Enumerate(cfg)
		enumEqual(t, "n2g1", plain, por)
	})
	t.Run("n2g2-reduced", func(t *testing.T) {
		cfg := EnumConfig{Scope: Scope{Nodes: 2, Groups: 2, Quiesce: 8 * time.Second}, Depth: 5}
		plain := Enumerate(cfg)
		cfg.POR = true
		por := Enumerate(cfg)
		if plain.Swept != por.Swept {
			t.Fatalf("swept differs: plain %v, por %v", plain.Swept, por.Swept)
		}
		if len(plain.Findings) != len(por.Findings) {
			t.Fatalf("finding counts differ: plain %d, por %d",
				len(plain.Findings), len(por.Findings))
		}
		for i := range plain.Findings {
			if Encode(plain.Findings[i].Schedule) != Encode(por.Findings[i].Schedule) {
				t.Fatalf("finding %d schedules differ", i)
			}
		}
		if por.Stats.Runs >= plain.Stats.Runs {
			t.Fatalf("POR did not reduce executed prefixes: %d vs %d",
				por.Stats.Runs, plain.Stats.Runs)
		}
		t.Logf("POR: %d runs vs %d (%.2fx), visited %d vs %d",
			por.Stats.Runs, plain.Stats.Runs,
			float64(plain.Stats.Runs)/float64(por.Stats.Runs),
			por.Stats.Visited, plain.Stats.Visited)
	})
}

// TestCheckpointV2RoundTrip: the compressed format round-trips every
// field, including the pruning flags, the memo set and a root frontier
// entry.
func TestCheckpointV2RoundTrip(t *testing.T) {
	sc, err := ParseScope("n3g2c1")
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		Scope:     sc,
		Depth:     9,
		POR:       true,
		ProbeMemo: true,
		Visited:   []uint64{3, 5, 0xdeadbeefcafe, 1 << 63, ^uint64(0)},
		Memo:      []uint64{7, 9, 0xfeedface},
		Frontier: [][]Op{
			nil, // the root entry: no ops
			{{Delay: sc.OpDelay, Kind: OpJoin, P: 1, LWG: "a"}},
			{
				{Delay: sc.OpDelay, Kind: OpPart, Cut: 2},
				{Delay: sc.Settle, Kind: OpWait},
				{Delay: sc.OpDelay, Kind: OpCrash, P: 1},
			},
		},
		Stats: EnumStats{Visited: 120, Pruned: 340, Runs: 460, Deepest: 8},
	}
	text := EncodeCheckpoint(cp)
	if !strings.HasPrefix(text, "enumcheckpoint v2\n") {
		t.Fatalf("encoder did not emit v2:\n%s", text)
	}
	got, err := ParseCheckpoint(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round-trip changed the checkpoint:\n%+v\nvs\n%+v", got, cp)
	}
}

// TestCheckpointV1Compat: the uncompressed v1 format is no longer read.
// Any header but "enumcheckpoint v2" is an error that names the version
// found, and v1's uncompressed directives are unknown inside a v2 file.
func TestCheckpointV1Compat(t *testing.T) {
	v1 := encodeCheckpointV1(&Checkpoint{
		Scope:    Scope{Nodes: 3, Groups: 1},
		Visited:  []uint64{0x1a2b, 0x3c4d, ^uint64(0)},
		Frontier: [][]Op{{{Delay: 50 * time.Millisecond, Kind: OpPart, Cut: 1}}},
	})
	for _, tc := range []struct{ name, text, wantErr string }{
		{"v1 file", v1, `unsupported checkpoint version "v1"`},
		{"future version", "enumcheckpoint v3\nscope n3g1\n", `unsupported checkpoint version "v3"`},
		{"no header", "scope n3g1\n", `expected header "enumcheckpoint v2"`},
		{"v1 visited directive", "enumcheckpoint v2\nscope n3g1\nvisited 1a2b 3c4d\n", `unknown directive "visited"`},
		{"v1 frontier directive", "enumcheckpoint v2\nscope n3g1\nfrontier op 50ms part 1\n", `unknown directive "frontier"`},
	} {
		cp, err := ParseCheckpoint(tc.text)
		if err == nil {
			t.Errorf("%s: parsed as %+v, want an error", tc.name, cp)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckpointCompression: the v2 encoding of a realistic checkpoint
// must be materially smaller than the v1 rendering of the same data.
func TestCheckpointCompression(t *testing.T) {
	res := Enumerate(EnumConfig{
		Scope:  Scope{Nodes: 3, Groups: 1, Quiesce: 8 * time.Second},
		Depth:  6,
		Budget: 300,
	})
	if res.Checkpoint == nil {
		t.Skip("scope swept within budget; no checkpoint to measure")
	}
	v2 := len(EncodeCheckpoint(res.Checkpoint))
	v1 := len(encodeCheckpointV1(res.Checkpoint))
	if v2*2 > v1 {
		t.Fatalf("v2 checkpoint not at least 2x smaller: v2=%dB v1=%dB", v2, v1)
	}
	t.Logf("checkpoint size: v1=%dB v2=%dB (%.1fx)", v1, v2, float64(v1)/float64(v2))
}

// encodeCheckpointV1 reproduces the old uncompressed rendering, kept only
// as the size reference for the compression test and as the input of the
// rejection test.
func encodeCheckpointV1(cp *Checkpoint) string {
	var b strings.Builder
	b.WriteString("enumcheckpoint v1\n")
	b.WriteString("scope " + cp.Scope.String() + "\n")
	for i := 0; i < len(cp.Visited); i += 64 {
		end := i + 64
		if end > len(cp.Visited) {
			end = len(cp.Visited)
		}
		b.WriteString("visited")
		for _, d := range cp.Visited[i:end] {
			b.WriteString(" ")
			b.WriteString(strings.ToLower(strings.TrimPrefix(hex64(d), "0x")))
		}
		b.WriteByte('\n')
	}
	for _, ops := range cp.Frontier {
		b.WriteString("frontier")
		for i, op := range ops {
			if i == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(';')
			}
			b.WriteString(op.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func hex64(d uint64) string {
	const digits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = digits[d&0xf]
		d >>= 4
	}
	return string(out[:])
}
