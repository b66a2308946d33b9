package rtnet

import (
	"testing"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
)

// withDefault returns a spec holding only a default rule.
func withDefault(r *faults.Rule) *faults.Spec { return &faults.Spec{Default: r} }

func TestFaultPlanDeterministic(t *testing.T) {
	mk := func() *faultTable {
		ft := newFaultTable(42)
		ft.install(withDefault(&faults.Rule{Loss: 0.3, Dup: 0.3, Reorder: 0.3, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}))
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
	ft.install(withDefault(&faults.Rule{Block: true}))
	ft.setLink(2, &faults.Rule{}) // explicit clean override
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
	ft.install(withDefault(&faults.Rule{Loss: 0.5}))
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
	ft.install(withDefault(&faults.Rule{Loss: 1}))
	ft.install(nil) // clear everything
	if send, delays := ft.plan(3); !send || delays != nil {
		t.Fatalf("cleared table must be a no-op, got send=%v delays=%v", send, delays)
	}
}
