package bench

import (
	"strings"
	"testing"

	"plwg/internal/ids"
)

func TestTable3InconsistentMappings(t *testing.T) {
	var b strings.Builder
	c := Table3Scenario(&b, 1)
	out := b.String()
	// While partitioned, each side's server must have its own mappings.
	if !strings.Contains(out, "databases while partitioned") {
		t.Fatalf("missing partition stage:\n%s", out)
	}
	// After the heal and one reconciliation round, server 0 must hold
	// two live mappings per LWG (Table 3's merged database).
	for _, lwg := range []ids.LWGID{"a", "b"} {
		live := c.Servers[0].DB().Live(lwg)
		if len(live) != 2 {
			t.Errorf("merged db: LWG %s has %d live mappings, want 2\n%s",
				lwg, len(live), c.Servers[0].DB().Dump())
		}
		if !c.Servers[0].DB().Conflict(lwg) {
			t.Errorf("merged db: LWG %s not flagged as conflicting", lwg)
		}
	}
}

func TestTable4MergeEvolution(t *testing.T) {
	var b strings.Builder
	Table4Scenario(&b, 1)
	out := b.String()
	if !strings.Contains(out, "Converged: one live mapping per LWG") {
		t.Fatalf("Table 4 evolution did not converge:\n%s", out)
	}
	// The reconciliation trace must show the Section 6 machinery.
	for _, want := range []string{"multiple-mappings", "merge-step"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
