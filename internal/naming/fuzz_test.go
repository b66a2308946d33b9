package naming

import (
	"testing"

	"plwg/internal/ids"
)

// FuzzDBMerge decodes arbitrary bytes into a stream of entry operations
// and checks the database invariants hold under any input: merge
// idempotence, tombstone stickiness, and no live entry with an ancestor
// also live.
func FuzzDBMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 254, 1, 9, 3, 200, 17, 5, 5, 5, 5, 90})
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries := decodeEntries(raw)
		db := NewDB()
		db.Merge(entries)
		dump1 := db.Dump()
		// Idempotence.
		if dirty := db.Merge(entries); len(dirty) != 0 {
			t.Fatalf("re-merge reported change in %v\ninput: %v", dirty, entries)
		}
		if db.Dump() != dump1 {
			t.Fatal("re-merge changed the database")
		}
		// Invariant: no live entry is an ancestor of another entry of
		// the same LWG.
		for _, lwg := range db.LWGs() {
			g, live := db.genealogy(lwg), db.Live(lwg)
			for _, a := range live {
				for _, b := range live {
					if a.View != b.View && !g.Concurrent(a.View, b.View) && g.IsAncestor(a.View, b.View) {
						t.Fatalf("live ancestor survived GC: %v < %v", a.View, b.View)
					}
				}
			}
		}
		// Order independence: merging in reverse yields the same state.
		rev := make([]Entry, len(entries))
		for i, e := range entries {
			rev[len(entries)-1-i] = e
		}
		db2 := NewDB()
		db2.Merge(rev)
		if db2.Dump() != dump1 {
			t.Fatalf("merge order dependence:\n%s\nvs\n%s", dump1, db2.Dump())
		}
	})
}

// decodeEntries makes a deterministic entry stream out of fuzz bytes.
// Small ID spaces force collisions, ancestry and tombstone interactions.
func decodeEntries(raw []byte) []Entry {
	var out []Entry
	for i := 0; i+5 < len(raw); i += 6 {
		e := Entry{
			LWG:       ids.LWGID(string(rune('a' + raw[i]%3))),
			View:      ids.ViewID{Coord: ids.ProcessID(raw[i+1] % 4), Seq: uint64(raw[i+2]%8) + 1},
			HWG:       ids.HWGID(raw[i+3]%4) + 1,
			Ver:       uint64(raw[i+4] % 8),
			Deleted:   raw[i+5]&1 == 1,
			Refreshed: int64(raw[i+5]),
		}
		// Ancestors: derive deterministically from the byte soup, but
		// keep the genealogy a DAG as the protocol guarantees (an
		// ancestor causally precedes its descendant): generated edges
		// always point to strictly smaller sequence numbers.
		if raw[i+5]&2 != 0 && e.View.Seq > 1 {
			anc := ids.ViewID{Coord: ids.ProcessID(raw[i+5] % 4), Seq: uint64(raw[i+4])%e.View.Seq + 1}
			if anc.Seq < e.View.Seq {
				e.Ancestors = ids.ViewIDs{anc}
			}
		}
		out = append(out, e)
	}
	return out
}
