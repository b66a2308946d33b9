package naming

import (
	"testing"
	"time"

	"plwg/internal/ids"
)

func benchSeedGroups(db *DB, groups int) {
	for i := 0; i < groups; i++ {
		lwg := ids.LWGID("lwg-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)))
		db.Put(Entry{LWG: lwg, View: vid(1, 1), HWG: ids.HWGID(i%5) + 1, Ver: 1, Refreshed: 1})
	}
}

// BenchmarkAntiEntropyRound measures one full digest/delta exchange
// between two servers with 256 groups, one of which changed: the
// steady-state reconcile cost of the naming service.
func BenchmarkAntiEntropyRound(b *testing.B) {
	w := newSrvWorld(b, 2, Config{MappingTTL: -1}, false)
	const groups = 256
	benchSeedGroups(w.servers[0].DB(), groups)
	benchSeedGroups(w.servers[1].DB(), groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One group's mapping advances, then a round reconciles it.
		w.servers[0].DB().Put(Entry{
			LWG: "lwg-aaa", View: vid(1, 1), HWG: 1,
			Ver: uint64(i) + 2, Refreshed: 1,
		})
		w.servers[0].antiEntropy()
		w.s.RunFor(100 * time.Millisecond)
	}
}

// BenchmarkDigestVector measures recomputing one group's digest plus
// assembling the vector over 1024 groups with warm caches — the
// per-probe CPU cost at fig-scale size.
func BenchmarkDigestVector(b *testing.B) {
	db := NewDB()
	benchSeedGroups(db, 1024)
	db.DigestVector() // warm the per-group caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put(Entry{LWG: "lwg-aaa", View: vid(1, 1), HWG: 1, Ver: uint64(i) + 2, Refreshed: 1})
		db.DigestVector()
		db.Hash()
	}
}
