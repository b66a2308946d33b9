package workload

import (
	"testing"

	"plwg/internal/ids"
)

func TestFig2Topology(t *testing.T) {
	topo := Fig2Topology(3)
	if topo.Procs != 8 {
		t.Errorf("Procs = %d, want 8", topo.Procs)
	}
	if len(topo.Groups) != 6 {
		t.Fatalf("groups = %d, want 6", len(topo.Groups))
	}
	setA := ids.NewMembers(0, 1, 2, 3)
	setB := ids.NewMembers(4, 5, 6, 7)
	for i, g := range topo.Groups {
		if i < 3 {
			if g.Set != 0 || !g.Members.Equal(setA) {
				t.Errorf("group %d = %+v, want set A %v", i, g, setA)
			}
		} else {
			if g.Set != 1 || !g.Members.Equal(setB) {
				t.Errorf("group %d = %+v, want set B %v", i, g, setB)
			}
		}
	}
	if topo.Groups[0].Name != "a1" || topo.Groups[3].Name != "b1" {
		t.Errorf("names = %v, %v", topo.Groups[0].Name, topo.Groups[3].Name)
	}
	if topo.Groups[0].Sender() != 0 || topo.Groups[3].Sender() != 4 {
		t.Error("senders must be the first members")
	}
}

func TestGroupsOf(t *testing.T) {
	topo := Fig2Topology(2)
	if got := topo.GroupsOf(0); len(got) != 2 {
		t.Errorf("p0 is in %d groups, want 2", len(got))
	}
	if got := topo.GroupsOf(4); len(got) != 2 {
		t.Errorf("p4 is in %d groups, want 2", len(got))
	}
	for _, g := range topo.GroupsOf(0) {
		if g.Set != 0 {
			t.Errorf("p0 must only be in set A groups, got %+v", g)
		}
	}
	if got := topo.GroupsOf(3); len(got) != 2 {
		t.Errorf("GroupsOf(3) = %d", len(got))
	}
}

func TestOverlapTopology(t *testing.T) {
	topo := OverlapTopology(8, 4, 4, 2)
	if len(topo.Groups) != 4 {
		t.Fatalf("groups = %d", len(topo.Groups))
	}
	// Group 0 covers {0,1,2,3}, group 1 covers {2,3,4,5}: overlap 2.
	g0, g1 := topo.Groups[0], topo.Groups[1]
	if !g0.Members.Equal(ids.NewMembers(0, 1, 2, 3)) {
		t.Errorf("g0 members = %v", g0.Members)
	}
	if got := g0.Members.Intersect(g1.Members); len(got) != 2 {
		t.Errorf("overlap = %v, want 2 members", got)
	}
	// Wrap-around: the last group crosses the process ring boundary.
	g3 := topo.Groups[3]
	if !g3.Members.Equal(ids.NewMembers(6, 7, 0, 1)) {
		t.Errorf("g3 members = %v", g3.Members)
	}
}
