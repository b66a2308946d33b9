package cluster

import (
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/netsim"
)

type nopUp struct{}

func (nopUp) View(ids.LWGID, ids.View)              {}
func (nopUp) Data(ids.LWGID, ids.ProcessID, []byte) {}

// TestNewBuildsEveryNode: New gives each pid its endpoint, starts name
// servers exactly where the config names them, asks the Upcalls factory
// once per pid in order, and attaches every node to the network: two
// nodes that are not servers form one group through them.
func TestNewBuildsEveryNode(t *testing.T) {
	var asked []ids.ProcessID
	c := New(Config{
		Nodes:    4,
		Seed:     1,
		Net:      netsim.DefaultParams(),
		Endpoint: core.Params{Servers: []ids.ProcessID{0, 2}},
		Upcalls: func(pid ids.ProcessID) core.Upcalls {
			asked = append(asked, pid)
			return nopUp{}
		},
	})
	if len(c.Endpoints) != 4 {
		t.Fatalf("%d endpoints, want 4", len(c.Endpoints))
	}
	for i, ep := range c.Endpoints {
		if ep.PID() != ids.ProcessID(i) {
			t.Errorf("Endpoints[%d] has pid %v", i, ep.PID())
		}
		if asked[i] != ids.ProcessID(i) {
			t.Errorf("factory call %d was for %v", i, asked[i])
		}
	}
	if len(asked) != 4 {
		t.Errorf("factory called %d times, want 4", len(asked))
	}
	if len(c.Servers) != 2 || c.Servers[0] == nil || c.Servers[2] == nil {
		t.Errorf("servers on %v, want 0 and 2", c.Servers)
	}

	const g ids.LWGID = "g"
	for _, i := range []int{1, 3} {
		if err := c.Endpoints[i].Join(g); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.RunFor(2 * time.Second)
	v1, ok1 := c.Endpoints[1].LWGView(g)
	v3, ok3 := c.Endpoints[3].LWGView(g)
	if !ok1 || !ok3 || v1.ID != v3.ID || !v1.Members.Equal(ids.NewMembers(1, 3)) {
		t.Fatalf("views %v (%v) and %v (%v), want one view of {1,3}", v1, ok1, v3, ok3)
	}
}
