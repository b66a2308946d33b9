// Trading: the Swiss Exchange Trading System workload from the paper's
// introduction — one group per data "subject", many overlapping groups
// among the same trading hosts. The light-weight group service maps the
// many subject groups onto a handful of heavy-weight groups, so the
// per-group cost of virtual synchrony (failure detection, flush) is paid
// once per host set instead of once per subject.
//
//	go run ./examples/trading
package main

import (
	"fmt"
	"log"
	"time"

	"plwg"
)

const (
	hosts    = 8  // trading hosts
	subjects = 12 // data subjects (bonds, equities, derivatives, ...)
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := plwg.NewCluster(plwg.Config{
		Nodes:       hosts,
		NameServers: []int{0},
		Seed:        7,
	})
	if err != nil {
		return err
	}

	// Two desks: hosts 0–3 trade equities subjects, hosts 4–7 trade
	// bond subjects. Subjects within a desk have identical membership,
	// so the dynamic service co-locates each desk's subjects on one
	// heavy-weight group.
	subjectName := func(i int) plwg.GroupName {
		if i < subjects/2 {
			return plwg.GroupName(fmt.Sprintf("equity-%d", i))
		}
		return plwg.GroupName(fmt.Sprintf("bond-%d", i-subjects/2))
	}
	desk := func(i int) []int {
		if i < subjects/2 {
			return []int{0, 1, 2, 3}
		}
		return []int{4, 5, 6, 7}
	}

	handles := make(map[plwg.GroupName]map[int]*plwg.Group)
	quotes := make(map[plwg.GroupName]int)
	for i := 0; i < subjects; i++ {
		name := subjectName(i)
		handles[name] = make(map[int]*plwg.Group)
		for _, h := range desk(i) {
			g, err := cluster.Process(h).Join(name)
			if err != nil {
				return err
			}
			name := name
			g.OnData(func(plwg.ProcessID, []byte) { quotes[name]++ })
			handles[name][h] = g
		}
		// Stagger subject creation as a live system would.
		cluster.Run(300 * time.Millisecond)
	}

	ok := cluster.RunUntil(func() bool {
		for i := 0; i < subjects; i++ {
			g := handles[subjectName(i)][desk(i)[0]]
			v, has := g.View()
			if !has || len(v.Members) != 4 {
				return false
			}
		}
		return true
	}, 200*time.Millisecond, 30*time.Second)
	if !ok {
		return fmt.Errorf("subjects did not converge")
	}

	fmt.Printf("%d subjects across %d hosts\n", subjects, hosts)
	for _, h := range []int{0, 4} {
		fmt.Printf("host %d carries %d subjects on heavy-weight groups %v\n",
			h, len(cluster.Process(h).Groups()), cluster.Process(h).HWGs())
	}

	// Disseminate quotes on every subject.
	fmt.Println("--- quote dissemination ---")
	cluster.ResetNetStats()
	for round := 0; round < 50; round++ {
		for i := 0; i < subjects; i++ {
			name := subjectName(i)
			quote := fmt.Sprintf("%s px=%d", name, 100+round)
			if err := handles[name][desk(i)[0]].Send([]byte(quote)); err != nil {
				return err
			}
		}
		cluster.Run(20 * time.Millisecond)
	}
	cluster.Run(time.Second)
	st := cluster.NetStats()
	var delivered int
	for _, n := range quotes {
		delivered += n
	}
	fmt.Printf("sent %d quotes; %d deliveries; %d frames on the wire (%v)\n",
		50*subjects, delivered, st.Frames, byKind(st.ByKind))

	// A trading host fails; one heavy-weight flush repairs every subject
	// of its desk at once (the paper's resource-sharing win).
	fmt.Println("--- host 3 fails ---")
	crashAt := cluster.Now()
	cluster.Crash(3)
	recovered := cluster.RunUntil(func() bool {
		for i := 0; i < subjects/2; i++ {
			v, has := handles[subjectName(i)][0].View()
			if !has || len(v.Members) != 3 {
				return false
			}
		}
		return true
	}, 50*time.Millisecond, 20*time.Second)
	if !recovered {
		return fmt.Errorf("equity subjects did not recover")
	}
	fmt.Printf("all %d equity subjects re-installed views %.0fms after the crash\n",
		subjects/2, (cluster.Now()-crashAt).Seconds()*1000)
	return nil
}

func byKind(m map[string]int64) string {
	return fmt.Sprintf("data=%d heartbeat=%d flush=%d naming=%d",
		m["data"], m["heartbeat"], m["flush"], m["naming"]+m["naming-digest"]+m["naming-delta"])
}
