// Package workload defines the experiment topologies and traffic
// patterns of the paper's evaluation (Section 3.3).
//
// The Figure 2 configuration is "two sets of n user groups where each
// group within a set has identical membership of 4 processes, and the two
// sets have disjoint membership": processes p0–p3 form set A with groups
// a1..an, processes p4–p7 form set B with groups b1..bn.
package workload

import (
	"fmt"

	"plwg/internal/ids"
)

// GroupRef identifies one user group of a topology.
type GroupRef struct {
	// Set indexes the group set (0 = "a", 1 = "b", ...).
	Set int
	// Index is the group's 1-based index within its set.
	Index int
	// Name is the light-weight group name ("a1", "b7", ...).
	Name ids.LWGID
	// Members is the group's membership.
	Members ids.Members
}

// Sender returns the group's designated traffic source (its first
// member).
func (g GroupRef) Sender() ids.ProcessID { return g.Members[0] }

// Topology is a set of user groups over a set of processes.
type Topology struct {
	// Procs is the number of processes (nodes).
	Procs int
	// Groups lists every user group.
	Groups []GroupRef
}

// Fig2Topology builds the paper's Figure 2 configuration with n groups
// per set: 8 processes, set A groups a1..an over {p0..p3}, set B groups
// b1..bn over {p4..p7}.
func Fig2Topology(n int) Topology {
	t := Topology{Procs: 8}
	setA := ids.NewMembers(0, 1, 2, 3)
	setB := ids.NewMembers(4, 5, 6, 7)
	for i := 1; i <= n; i++ {
		t.Groups = append(t.Groups, GroupRef{
			Set: 0, Index: i,
			Name:    ids.LWGID(fmt.Sprintf("a%d", i)),
			Members: setA.Clone(),
		})
	}
	for i := 1; i <= n; i++ {
		t.Groups = append(t.Groups, GroupRef{
			Set: 1, Index: i,
			Name:    ids.LWGID(fmt.Sprintf("b%d", i)),
			Members: setB.Clone(),
		})
	}
	return t
}

// OverlapTopology builds a topology where consecutive groups share part
// of their membership (the Swiss-Exchange-style "overlapping subjects"
// pattern from the paper's introduction): group i has `size` members
// starting at process i*stride mod procs.
func OverlapTopology(procs, groups, size, stride int) Topology {
	t := Topology{Procs: procs}
	for i := 0; i < groups; i++ {
		members := make([]ids.ProcessID, size)
		for j := 0; j < size; j++ {
			members[j] = ids.ProcessID((i*stride + j) % procs)
		}
		t.Groups = append(t.Groups, GroupRef{
			Set: 0, Index: i + 1,
			Name:    ids.LWGID(fmt.Sprintf("s%d", i+1)),
			Members: ids.NewMembers(members...),
		})
	}
	return t
}

// GroupsOf returns the groups that contain the process.
func (t Topology) GroupsOf(p ids.ProcessID) []GroupRef {
	var out []GroupRef
	for _, g := range t.Groups {
		if g.Members.Contains(p) {
			out = append(out, g)
		}
	}
	return out
}
