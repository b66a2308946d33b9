package core

import (
	"fmt"
	"testing"
	"time"

	"plwg/internal/check"
	"plwg/internal/ids"
)

// TestPreInstallOverflowIsLoud pins the bounded pre-install buffer's
// overflow behaviour: shedding a message increments
// core_preinstall_drops_total, leaves an LWGPreInstallDrop trace event,
// and the invariant checker turns that event into a preinstall-overflow
// finding. Before this, an overflow silently dropped view-tagged data —
// a delivery gap indistinguishable from a correct run.
func TestPreInstallOverflowIsLoud(t *testing.T) {
	w := newCWorld(t, 2, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	m := w.eps[1].lwgs["a"]
	if m == nil || m.state != lwgActive {
		t.Fatalf("p1 not active on a\ntrace:\n%s", w.tracer.Dump())
	}

	// Data tagged with a view p1 never installed (a concurrent view from
	// the far side of a partition) is buffered for replay. One message
	// past the cap must shed the oldest, loudly.
	bufferGhosts(m, maxPreInstall+1)
	if got := w.eps[1].ins.preinstallDrops.Value(); got != 1 {
		t.Fatalf("core_preinstall_drops_total = %d, want 1", got)
	}
	if got := w.eps[1].PreInstallBuffered("a"); got != maxPreInstall {
		t.Fatalf("buffered = %d, want %d (the cap)", got, maxPreInstall)
	}

	vs := check.Overflow(w.tracer.Events)
	if len(vs) != 1 {
		t.Fatalf("Overflow found %d violations, want 1:\n%s", len(vs), check.Summary(vs))
	}
	v := vs[0]
	if v.Invariant != check.InvOverflow || v.Group != "a" || v.Node != 1 {
		t.Fatalf("violation = %v", v)
	}
	// The shed message is the oldest — m1.
	if want := `shed "m1"`; len(v.Detail) < len(want) || v.Detail[:len(want)] != want {
		t.Fatalf("detail = %q, want prefix %q", v.Detail, want)
	}

	// check.Run surfaces it too, so every sweep and the enumerator see
	// overflow-induced gaps as findings.
	all := check.Run(&check.World{Events: w.tracer.Events})
	found := false
	for _, v := range all {
		if v.Invariant == check.InvOverflow {
			found = true
		}
	}
	if !found {
		t.Fatalf("check.Run missed the overflow:\n%s", check.Summary(all))
	}
}

// TestPreInstallNoFalseOverflow: staying within the bound sheds nothing.
func TestPreInstallNoFalseOverflow(t *testing.T) {
	w := newCWorld(t, 2, []ids.ProcessID{0}, testCfg())
	if err := w.eps[1].Join("a"); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	bufferGhosts(w.eps[1].lwgs["a"], maxPreInstall)
	if got := w.eps[1].ins.preinstallDrops.Value(); got != 0 {
		t.Fatalf("core_preinstall_drops_total = %d, want 0", got)
	}
	if vs := check.Overflow(w.tracer.Events); len(vs) != 0 {
		t.Fatalf("unexpected violations:\n%s", check.Summary(vs))
	}
}

// bufferGhosts buffers n messages m1..mn tagged with a view m never
// installed.
func bufferGhosts(m *lwgMember, n int) {
	ghost := ids.ViewID{Coord: 1, Seq: m.view.ID.Seq + 1000}
	for i := 1; i <= n; i++ {
		m.bufferPreInstall(1, &lwgData{LWG: "a", View: ghost, Data: []byte(fmt.Sprintf("m%d", i))})
	}
}
