package rtnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
)

// TestFaultMutationDuringTrafficAndClose hammers the thread-safety
// contract of the fault layer: fault rules are mutated from several
// goroutines while the protocol loop sends, the UDP readers receive,
// and finally while the nodes shut down. Run under -race this covers
// the transport close / reader-goroutine / fault-table interleavings.
func TestFaultMutationDuringTrafficAndClose(t *testing.T) {
	nodes, cols := startCluster(t, 3, []ids.ProcessID{0})

	for i := 0; i < 3; i++ {
		nodes[i].Do(func(ep *core.Endpoint) {
			if err := ep.Join("g"); err != nil {
				t.Errorf("join at %d: %v", i, err)
			}
		})
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[0].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1, 2))
	}, "membership did not converge")

	var specs []*faults.Spec
	for _, text := range []string{
		"loss=0.2,dup=0.2,reorder=0.3,delay=100us..1ms",
		"1:block;loss=0.05",
		"",
	} {
		fs, err := faults.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, fs)
	}
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	// Two mutators per node flip between fault specs as fast as they can.
	for _, n := range nodes {
		n := n
		for g := 0; g < 2; g++ {
			mutWG.Add(1)
			go func() {
				defer mutWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stopMut:
						return
					default:
					}
					n.SetFaults(specs[i%len(specs)])
					n.SetLinkFault(2, &faults.Rule{Dup: 0.5})
					n.SetLinkFault(2, nil)
					n.SetFaults(nil)
				}
			}()
		}
	}

	// Traffic while the rules churn.
	stopSend := make(chan struct{})
	var sendWG sync.WaitGroup
	for i, n := range nodes {
		i, n := i, n
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for k := 0; ; k++ {
				select {
				case <-stopSend:
					return
				default:
				}
				n.Do(func(ep *core.Endpoint) {
					_ = ep.Send("g", []byte(fmt.Sprintf("n%d-%d", i, k)))
				})
				time.Sleep(time.Millisecond)
			}
		}()
	}

	time.Sleep(2 * time.Second)
	close(stopSend)
	sendWG.Wait()
	// Close the nodes while the fault mutators are still running: rule
	// mutation must stay safe against the dying reader and loop.
	for _, n := range nodes {
		n.Close()
	}
	close(stopMut)
	mutWG.Wait()
}
