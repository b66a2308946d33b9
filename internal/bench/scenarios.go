package bench

import (
	"fmt"
	"io"
	"time"

	"plwg/internal/cluster"
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/trace"
)

// This file replays the paper's Tables 3 and 4: the evolution of the
// naming-service database through a partition and its healing.
//
// Figure 3's situation — the same LWGs mapped onto different HWGs in two
// concurrent partitions — is constructed by partitioning the network
// before the groups are created, so each side's creators and name server
// make independent mapping decisions. After the heal, the database passes
// through exactly the paper's stages:
//
//	1) merged naming service: both partitions' mappings coexist (Table 3)
//	2) merged HWGs:           concurrent LWG views on merged HWG views
//	3) switched LWGs:         all views of a LWG on the same (highest-gid)
//	                          HWG (Section 6.2)
//	4) merged LWGs:           one view per LWG, ancestors garbage-collected
//	                          (Table 4)

// scenarioCluster is the scenario player's world and its trace.
type scenarioCluster struct {
	*cluster.Cluster
	tracer *trace.Recorder
}

func newScenarioCluster(nodes int, serverPids []ids.ProcessID, seed int64) *scenarioCluster {
	c := &scenarioCluster{tracer: &trace.Recorder{}}
	svc := core.DefaultConfig()
	svc.PolicyInterval = time.Hour // scenarios drive reconfiguration themselves
	c.Cluster = cluster.New(cluster.Config{
		Nodes:    nodes,
		Seed:     seed,
		Net:      netsim.DefaultParams(),
		Endpoint: core.Params{Servers: serverPids, Config: svc, Tracer: c.tracer},
	})
	return c
}

func (c *scenarioCluster) dumpServer(w io.Writer, pid ids.ProcessID) {
	fmt.Fprintf(w, "  name server at %v:\n", pid)
	d := c.Servers[pid].DB().Dump()
	if d == "" {
		fmt.Fprintln(w, "    (empty)")
		return
	}
	for _, line := range splitLines(d) {
		fmt.Fprintf(w, "    %s\n", line)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Table3Scenario builds Figure 3's inconsistent mappings and prints the
// per-partition databases and the merged database of Table 3.
func Table3Scenario(w io.Writer, seed int64) *scenarioCluster {
	c := newScenarioCluster(8, []ids.ProcessID{0, 4}, seed)
	fmt.Fprintln(w, "== Table 3: inconsistent mappings across a partition ==")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Partitioning: p = {p0..p3}, p' = {p4..p7}")
	c.Net.SetPartitions(
		[]netsim.NodeID{0, 1, 2, 3},
		[]netsim.NodeID{4, 5, 6, 7},
	)
	// In partition p, p1 creates LWG a and p2 creates LWG b (distinct
	// creators → distinct HWGs); in partition p', p5 and p6 do the same.
	_ = c.Endpoints[1].Join("a")
	_ = c.Endpoints[2].Join("b")
	_ = c.Endpoints[5].Join("a")
	_ = c.Endpoints[6].Join("b")
	c.Sim.RunFor(3 * time.Second)
	// Second members join within each partition.
	_ = c.Endpoints[2].Join("a")
	_ = c.Endpoints[1].Join("b")
	_ = c.Endpoints[6].Join("a")
	_ = c.Endpoints[5].Join("b")
	c.Sim.RunFor(3 * time.Second)

	fmt.Fprintln(w, "\n-- databases while partitioned --")
	c.dumpServer(w, 0)
	c.dumpServer(w, 4)

	fmt.Fprintln(w, "\nHealing the partition; name servers reconcile by anti-entropy ...")
	c.Net.Heal()
	// Advance in small steps and capture the database at the moment the
	// reconciled (conflicting) state is visible — the LWG layer starts
	// repairing it within a few hundred milliseconds, so the Table 3
	// state is transient by design.
	deadline := c.Sim.Now().Add(5 * time.Second)
	for c.Sim.Now() < deadline {
		db := c.Servers[0].DB()
		if db.Conflict("a") && db.Conflict("b") {
			break
		}
		c.Sim.RunFor(20 * time.Millisecond)
	}
	fmt.Fprintln(w, "\n-- merged naming service (stage 1, Table 3) --")
	c.dumpServer(w, 0)
	return c
}

// Table4Scenario continues Table3Scenario through the four stages of
// Table 4, printing the database after each stage completes.
func Table4Scenario(w io.Writer, seed int64) {
	c := Table3Scenario(w, seed)
	fmt.Fprintln(w, "\n== Table 4: evolution to a single merged mapping ==")

	// Stages 2–4 proceed autonomously: the HWGs merge, the
	// MULTIPLE-MAPPINGS callbacks make the lower-gid views switch, the
	// concurrent views meet on one HWG and merge, and the naming service
	// garbage-collects the ancestors. Poll until each LWG has exactly
	// one live mapping.
	deadline := c.Sim.Now().Add(30 * time.Second)
	converged := func() bool {
		for _, lwg := range []ids.LWGID{"a", "b"} {
			if len(c.Servers[0].DB().Live(lwg)) != 1 || c.Servers[0].DB().Conflict(lwg) {
				return false
			}
			if len(c.Servers[4].DB().Live(lwg)) != 1 {
				return false
			}
		}
		return true
	}
	for !converged() && c.Sim.Now() < deadline {
		c.Sim.RunFor(250 * time.Millisecond)
	}
	fmt.Fprintln(w, "\n-- after reconciliation: switched and merged (stage 4, Table 4) --")
	c.dumpServer(w, 0)
	c.dumpServer(w, 4)

	fmt.Fprintln(w, "\n-- resulting light-weight group views --")
	for _, lwg := range []ids.LWGID{"a", "b"} {
		for _, pid := range []ids.ProcessID{1, 2, 5, 6} {
			if v, ok := c.Endpoints[pid].LWGView(lwg); ok {
				h, _ := c.Endpoints[pid].Mapping(lwg)
				fmt.Fprintf(w, "  %s at %v: view %v on %v\n", lwg, pid, v, h)
			}
		}
	}
	fmt.Fprintln(w, "\n-- reconciliation trace (lwg + naming layers) --")
	for _, e := range c.tracer.Events {
		switch e.What {
		case "multiple-mappings", "reconcile", "reconcile-switch",
			trace.LWGMergeStep, trace.LWGSwitch, trace.LWGRebind:
			fmt.Fprintf(w, "  %s\n", e.String())
		}
	}
	if converged() {
		fmt.Fprintln(w, "\nConverged: one live mapping per LWG; obsolete views garbage-collected.")
	} else {
		fmt.Fprintln(w, "\nWARNING: did not converge within the scenario horizon.")
	}
}
