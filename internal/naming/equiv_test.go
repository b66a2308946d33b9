package naming

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plwg/internal/netsim"
)

// nsOp is one scheduled database update in the equivalence scenario.
type nsOp struct {
	at     time.Duration
	server int
	entry  Entry
}

// genOps derives a deterministic schedule of random updates from a seed:
// which server takes the write, when, and what entry. Ops continue
// through the partition window so both sides diverge.
func genOps(seed int64, n int, servers int, span time.Duration) []nsOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]nsOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, nsOp{
			at:     time.Duration(rng.Int63n(int64(span))),
			server: rng.Intn(servers),
			entry:  randomEntry(rng),
		})
	}
	return ops
}

// equivSpan is how long the equivalence scenario runs on the virtual
// clock.
const equivSpan = 15 * time.Second

// runEquivScenario executes the schedule on a fresh 4-server world with
// a mid-run partition and heal, then returns each server's final
// database. The scenario is fully deterministic for a given (cfg, ops).
func runEquivScenario(t *testing.T, cfg Config, ops []nsOp) [][]Entry {
	t.Helper()
	w := newSrvWorld(t, 4, cfg, true)
	for _, op := range ops {
		op := op
		w.s.After(op.at, func() { w.servers[op.server].DB().Put(op.entry) })
	}
	w.s.After(2*time.Second, func() {
		w.nw.SetPartitions([]netsim.NodeID{0, 1}, []netsim.NodeID{2, 3})
	})
	w.s.After(6*time.Second, func() { w.nw.Heal() })
	w.s.RunFor(equivSpan)
	out := make([][]Entry, len(w.servers))
	for i, srv := range w.servers {
		out[i] = srv.DB().All()
	}
	return out
}

// referenceDB is the specification the replicas are held to: one database
// that took every write of the schedule directly, with no servers, no
// network and no partition in between — and, with leases, one expiry at
// the scenario's final clock.
func referenceDB(ops []nsOp, ttl time.Duration) []Entry {
	db := NewDB()
	for _, op := range ops {
		db.Put(op.entry)
	}
	db.Expire(int64(equivSpan), ttl)
	return db.All()
}

// requireReplicasMatch fails unless every replica holds exactly want.
func requireReplicasMatch(t *testing.T, what string, replicas [][]Entry, want []Entry) {
	t.Helper()
	for i, got := range replicas {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: server %d differs from the reference database\nwant: %v\ngot:  %v",
				what, i, want, got)
		}
	}
}

// TestDigestEquivalentToReferenceDB is the equivalence oracle for the
// digest/delta protocol: under random op schedules spread over four
// servers, a partition and a heal, every replica must converge to exactly
// the database a single DB holds after taking the same writes directly.
func TestDigestEquivalentToReferenceDB(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ops := genOps(seed, 60, 4, 9*time.Second)
		replicas := runEquivScenario(t, Config{MappingTTL: -1}, ops)
		requireReplicasMatch(t, fmt.Sprintf("seed %d", seed), replicas, referenceDB(ops, 0))
	}
}

// TestDigestEquivalenceWithLeases reruns the oracle with mapping leases
// enabled, so expiry interleaves with reconciliation.
func TestDigestEquivalenceWithLeases(t *testing.T) {
	const ttl = 4 * time.Second
	ops := genOps(99, 40, 4, 9*time.Second)
	replicas := runEquivScenario(t, Config{MappingTTL: ttl}, ops)
	requireReplicasMatch(t, "leases", replicas, referenceDB(ops, ttl))
}
