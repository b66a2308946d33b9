package rtnet

import (
	"testing"
	"time"

	"plwg/internal/ids"
)

func TestParseFaultSpec(t *testing.T) {
	fs, err := ParseFaultSpec("loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms")
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
	fs, err := ParseFaultSpec("loss=0.2;3:block;7:clean")
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
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q: expected error, got none", bad)
		}
	}
}

func TestFaultSpecRoundTrip(t *testing.T) {
	in := "loss=0.1,delay=1ms..4ms;2:block;5:dup=0.25,reorder=0.5"
	fs, err := ParseFaultSpec(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	again, err := ParseFaultSpec(fs.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", fs.String(), err)
	}
	if fs.String() != again.String() {
		t.Fatalf("round trip changed spec: %q vs %q", fs.String(), again.String())
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	mk := func() *faultTable {
		ft := newFaultTable(42)
		ft.setDefault(&FaultRule{Loss: 0.3, Dup: 0.3, Reorder: 0.3, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond})
		return ft
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		to := ids.ProcessID(i % 4)
		sa, da := a.plan(to)
		sb, db := b.plan(to)
		if sa != sb || len(da) != len(db) {
			t.Fatalf("step %d: decisions diverged (%v,%v) vs (%v,%v)", i, sa, da, sb, db)
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("step %d copy %d: delay %v vs %v", i, j, da[j], db[j])
			}
		}
	}
}

func TestFaultPlanBlockAndOverride(t *testing.T) {
	ft := newFaultTable(1)
	ft.setDefault(&FaultRule{Block: true})
	ft.setLink(2, &FaultRule{}) // explicit clean override
	if send, _ := ft.plan(1); send {
		t.Fatal("default block should drop")
	}
	if send, delays := ft.plan(2); !send || delays != nil {
		t.Fatalf("clean override should pass through, got send=%v delays=%v", send, delays)
	}
	ft.setLink(2, nil) // remove override: falls back to blocked default
	if send, _ := ft.plan(2); send {
		t.Fatal("after removing the override the default block should apply")
	}
}

func TestFaultPlanLossRate(t *testing.T) {
	ft := newFaultTable(7)
	ft.setDefault(&FaultRule{Loss: 0.5})
	dropped := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if send, _ := ft.plan(1); !send {
			dropped++
		}
	}
	if dropped < n*4/10 || dropped > n*6/10 {
		t.Fatalf("loss=0.5 dropped %d of %d", dropped, n)
	}
}

func TestFaultPlanCleanFastPath(t *testing.T) {
	ft := newFaultTable(1)
	if send, delays := ft.plan(3); !send || delays != nil {
		t.Fatalf("empty table must be a no-op, got send=%v delays=%v", send, delays)
	}
	ft.setDefault(&FaultRule{Loss: 1})
	ft.install(nil) // clear everything
	if send, delays := ft.plan(3); !send || delays != nil {
		t.Fatalf("cleared table must be a no-op, got send=%v delays=%v", send, delays)
	}
}

// FuzzParseFaultSpec feeds ParseFaultSpec arbitrary -faults strings (the
// lwgnode and lwgcheck command lines, and the rtfaults line of a schedule
// file): it must not panic, and a spec that parses holds only
// probabilities in [0, 1] and delay ranges with 0 ≤ min ≤ max — what the
// fault planner draws against without checking again.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms")
	f.Add("loss=0.2;3:block")
	f.Add("loss=0.1,delay=1ms..4ms;2:block;5:dup=0.25,reorder=0.5;7:clean")
	f.Add("loss=NaN")
	f.Add(" ; 12 : delay=1h , ,block;")
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		rules := []*FaultRule{fs.Default}
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
