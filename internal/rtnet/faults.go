package rtnet

import (
	"math/rand"
	"sync"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
)

// faultTable is the live faults.Spec of one transport, applied per
// outgoing datagram. Its seeded source makes a node that emits the same
// datagram sequence make the same fault decisions. All methods are safe
// from any goroutine, so faults can change while traffic flows.
type faultTable struct {
	mu   sync.Mutex
	rng  *rand.Rand
	spec faults.Spec // Links is owned by the table (install copies it)
}

func newFaultTable(seed int64) *faultTable {
	return &faultTable{
		rng:  rand.New(rand.NewSource(seed)),
		spec: faults.Spec{Links: make(map[ids.ProcessID]*faults.Rule)},
	}
}

func (ft *faultTable) reseed(seed int64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.rng = rand.New(rand.NewSource(seed))
}

func (ft *faultTable) setLink(to ids.ProcessID, r *faults.Rule) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if r == nil {
		delete(ft.spec.Links, to)
	} else {
		ft.spec.Links[to] = r
	}
}

// install replaces the whole table with the spec (nil clears everything).
func (ft *faultTable) install(fs *faults.Spec) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.spec = faults.Spec{Links: make(map[ids.ProcessID]*faults.Rule)}
	if fs != nil {
		ft.spec.Default = fs.Default
		for p, r := range fs.Links {
			ft.spec.Links[p] = r
		}
	}
}

// plan decides the fate of one datagram to one peer (see faults.Rule.Plan).
// The common no-faults case returns (true, nil) without drawing.
func (ft *faultTable) plan(to ids.ProcessID) (send bool, delays []time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.spec.Rule(to).Plan(ft.rng)
}
