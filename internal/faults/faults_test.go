package faults

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"plwg/internal/ids"
)

func TestParseFaultSpec(t *testing.T) {
	fs, err := Parse("loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := fs.Default
	if r == nil {
		t.Fatal("no default rule")
	}
	if r.Loss != 0.05 || r.Dup != 0.05 || r.Reorder != 0.1 {
		t.Fatalf("probabilities wrong: %+v", r)
	}
	if r.DelayMin != 200*time.Microsecond || r.DelayMax != 2*time.Millisecond {
		t.Fatalf("delays wrong: %+v", r)
	}
	if len(fs.Links) != 0 {
		t.Fatalf("unexpected link rules: %v", fs.Links)
	}
}

func TestParseFaultSpecPerLink(t *testing.T) {
	fs, err := Parse("loss=0.2;3:block;7:clean")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if fs.Default == nil || fs.Default.Loss != 0.2 {
		t.Fatalf("default wrong: %+v", fs.Default)
	}
	if r := fs.Links[3]; r == nil || !r.Block {
		t.Fatalf("link 3 should be blocked: %+v", r)
	}
	if r := fs.Links[7]; r == nil || !r.clean() {
		t.Fatalf("link 7 should be an explicit clean override: %+v", r)
	}
	if fs.Rule(7) != fs.Links[7] || fs.Rule(1) != fs.Default {
		t.Fatal("Rule must prefer the link override and fall back to the default")
	}
	var none *Spec
	if none.Rule(3) != nil {
		t.Fatal("a nil spec must be clean everywhere")
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"loss=1.5",       // probability out of range
		"loss=abc",       // not a number
		"dup=NaN",        // a number ParseFloat accepts and no comparison rejects
		"delay=oops",     // not a duration
		"delay=5ms..1ms", // inverted range
		"frobnicate",     // unknown item
		"x:block",        // bad peer id
		"-1:block",       // negative peer id
		"dup=0.5,zap=1",  // unknown item after a good one
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("spec %q: expected error, got none", bad)
		}
	}
}

func TestFaultSpecRoundTrip(t *testing.T) {
	in := "loss=0.1,delay=1ms..4ms;2:block;5:dup=0.25,reorder=0.5"
	fs, err := Parse(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	again, err := Parse(fs.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", fs.String(), err)
	}
	if fs.String() != again.String() {
		t.Fatalf("round trip changed spec: %q vs %q", fs.String(), again.String())
	}
}

// legacyTable is the real transport's fault table as it stood before the
// rule logic moved into this package, kept verbatim as the oracle that
// Rule.Plan draws the same decisions, in the same order, from the same
// source.
type legacyTable struct {
	mu     sync.Mutex
	rng    *rand.Rand
	def    *Rule
	links  map[ids.ProcessID]*Rule
	active bool
}

func (ft *legacyTable) plan(to ids.ProcessID) (send bool, delays []time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if !ft.active {
		return true, nil
	}
	r := ft.links[to]
	if r == nil {
		r = ft.def
	}
	if r == nil || r.clean() {
		return true, nil
	}
	if r.Block {
		return false, nil
	}
	if r.Loss > 0 && ft.rng.Float64() < r.Loss {
		return false, nil
	}
	copies := 1
	if r.Dup > 0 && ft.rng.Float64() < r.Dup {
		copies = 2
	}
	delays = make([]time.Duration, copies)
	for i := range delays {
		d := r.DelayMin
		if r.DelayMax > r.DelayMin {
			d += time.Duration(ft.rng.Int63n(int64(r.DelayMax - r.DelayMin)))
		}
		if r.Reorder > 0 && ft.rng.Float64() < r.Reorder {
			d += time.Duration(ft.rng.Int63n(int64(r.reorderWindow())))
		}
		delays[i] = d
	}
	return true, delays
}

// randomRule draws a rule whose every field is independently zero or
// not, so clean, blocked and every loss/dup/reorder/delay mix occur.
func randomRule(g *rand.Rand) *Rule {
	r := &Rule{}
	prob := func() float64 {
		switch g.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1
		default:
			return g.Float64()
		}
	}
	if g.Intn(8) == 0 {
		r.Block = true
	}
	if g.Intn(2) == 0 {
		r.Loss = prob()
	}
	if g.Intn(2) == 0 {
		r.Dup = prob()
	}
	if g.Intn(2) == 0 {
		r.Reorder = prob()
	}
	if g.Intn(2) == 0 {
		r.DelayMin = time.Duration(g.Int63n(int64(3 * time.Millisecond)))
	}
	if g.Intn(2) == 0 {
		r.DelayMax = r.DelayMin + time.Duration(g.Int63n(int64(5*time.Millisecond)))
	}
	if g.Intn(4) == 0 {
		r.DelayMax = r.DelayMin // fixed delay, no draw
	}
	return r
}

// TestPlanMatchesLegacyTable pins that moving the planner out of the
// transport changed no decision: over random rules (default and per-link)
// and seeds, Spec.Rule(to).Plan returns what the old table's plan did and
// leaves the source at the same next draw.
func TestPlanMatchesLegacyTable(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	const specs = 1500
	for n := 0; n < specs; n++ {
		spec := &Spec{Links: make(map[ids.ProcessID]*Rule)}
		if g.Intn(3) > 0 {
			spec.Default = randomRule(g)
		}
		for p := ids.ProcessID(0); p < 4; p++ {
			if g.Intn(3) == 0 {
				spec.Links[p] = randomRule(g)
			}
		}
		seed := g.Int63()
		legacy := &legacyTable{
			rng:    rand.New(rand.NewSource(seed)),
			def:    spec.Default,
			links:  spec.Links,
			active: spec.Default != nil || len(spec.Links) > 0,
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			to := ids.ProcessID(g.Intn(5))
			wantSend, wantDelays := legacy.plan(to)
			send, delays := spec.Rule(to).Plan(rng)
			if send != wantSend || !reflect.DeepEqual(delays, wantDelays) {
				t.Fatalf("spec %q seed %d frame %d to %d: got (%v, %v), legacy (%v, %v)",
					spec, seed, i, to, send, delays, wantSend, wantDelays)
			}
		}
		if a, b := rng.Int63(), legacy.rng.Int63(); a != b {
			t.Fatalf("spec %q seed %d: the source drifted (next draw %d, legacy %d)", spec, seed, a, b)
		}
	}
}

// FuzzParseFaultSpec feeds Parse arbitrary -faults strings (the lwgnode
// and lwgcheck command lines, and the faults line of a schedule file): it
// must not panic, and a spec that parses holds only probabilities in
// [0, 1] and delay ranges with 0 ≤ min ≤ max — what Plan draws against
// without checking again.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms")
	f.Add("loss=0.2;3:block")
	f.Add("loss=0.1,delay=1ms..4ms;2:block;5:dup=0.25,reorder=0.5;7:clean")
	f.Add("loss=NaN")
	f.Add(" ; 12 : delay=1h , ,block;")
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := Parse(spec)
		if err != nil {
			return
		}
		rules := []*Rule{fs.Default}
		for peer, r := range fs.Links {
			if peer < 0 || r == nil {
				t.Fatalf("spec %q: link %d -> %v", spec, peer, r)
			}
			rules = append(rules, r)
		}
		for _, r := range rules {
			if r == nil {
				continue // no default clause
			}
			for _, p := range []float64{r.Loss, r.Dup, r.Reorder} {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("spec %q: probability %v outside [0, 1]", spec, p)
				}
			}
			if r.DelayMin < 0 || r.DelayMax < r.DelayMin {
				t.Fatalf("spec %q: delay range %v..%v", spec, r.DelayMin, r.DelayMax)
			}
		}
	})
}
