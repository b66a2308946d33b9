// Package cluster builds the one simulated world every virtual-time
// caller runs on — plwg.Cluster, the checker's world, the Figure 2
// harness and the Table 3/4 player: an engine, the shared-bus network,
// and the full stack on each node (core.NewNode).
package cluster

import (
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// Config describes a world.
type Config struct {
	// Nodes is the number of nodes, pids 0..Nodes-1.
	Nodes int
	Seed  int64
	// Net is the network model, used as given.
	Net netsim.Params
	// Endpoint is every node's core.Params; New fills in Net, PID and
	// (when Upcalls is set) Upcalls.
	Endpoint core.Params
	// Naming configures the naming servers on Endpoint.Servers.
	Naming  naming.Config
	Upcalls func(ids.ProcessID) core.Upcalls
}

// Cluster is a built world. Time advances only through Sim.
type Cluster struct {
	Sim       *sim.Sim
	Net       *netsim.Network
	Endpoints []*core.Endpoint // indexed by pid
	Servers   map[ids.ProcessID]*naming.Server
}

// New builds the world, node by node in pid order; each node joins the
// network once its stack is complete.
func New(cfg Config) *Cluster {
	s := sim.New(cfg.Seed)
	c := &Cluster{
		Sim:       s,
		Net:       netsim.New(s, cfg.Net),
		Endpoints: make([]*core.Endpoint, cfg.Nodes),
		Servers:   make(map[ids.ProcessID]*naming.Server),
	}
	for i := range c.Endpoints {
		pid := ids.ProcessID(i)
		p := cfg.Endpoint
		p.Net, p.PID = c.Net, pid
		if cfg.Upcalls != nil {
			p.Upcalls = cfg.Upcalls(pid)
		}
		mux := netsim.NewMux()
		ep, srv := core.NewNode(p, cfg.Naming, mux)
		c.Endpoints[i] = ep
		if srv != nil {
			c.Servers[pid] = srv
		}
		c.Net.AddNode(pid, mux.Handler())
	}
	return c
}
