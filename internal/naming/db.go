// Package naming implements the paper's partitionable naming service
// (Section 5.2): a set of cooperating, weakly consistent name servers that
// store mappings between light-weight group views and heavy-weight group
// views.
//
// Because strong replica consistency cannot be enforced across partitions,
// the service deliberately allows inconsistent mappings to coexist and
// instead provides:
//
//   - view-aware mappings: the database stores LWG *views* mapped onto
//     HWG views, not just group-to-group associations, so concurrent
//     mappings from different partitions can coexist unambiguously
//     (Table 3);
//   - anti-entropy reconciliation: servers periodically exchange their
//     databases, so partition healing merges the mapping knowledge of both
//     sides;
//   - genealogy-based garbage collection: the service tracks the partial
//     order of views, and deletes a mapping as soon as a descendant view's
//     mapping is stored (Table 4's evolution);
//   - MULTIPLE-MAPPINGS callbacks: when concurrent views of one LWG are
//     found mapped onto different HWGs, the coordinators of the affected
//     views are notified so they can reconcile (Section 6.1).
//
// The classic Table 2 primitives (ns.set, ns.read, ns.testset) are
// provided as thin wrappers over the view-aware operations.
package naming

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"plwg/internal/ids"
)

// Entry is one mapping: a specific LWG view mapped onto a heavy-weight
// group (and, once known, a specific view of it). Entries are written only
// by the coordinator of the LWG view, so Ver imposes a single-writer
// version order; Deleted is a sticky tombstone.
type Entry struct {
	LWG ids.LWGID
	// View is the LWG view this mapping is for.
	View ids.ViewID
	// Ancestors is the full strict-ancestor set of View. Carrying the
	// transitive set (rather than immediate parents) keeps ancestry
	// queries correct even when intermediate entries were already
	// garbage-collected on the receiving server.
	Ancestors ids.ViewIDs
	// HWG is the heavy-weight group the view is mapped onto.
	HWG ids.HWGID
	// HWGView is the HWG view, when known (zero until the members have
	// joined it).
	HWGView ids.ViewID
	// Ver orders updates to the same View's mapping.
	Ver uint64
	// Refreshed is the (virtual-time, nanoseconds) timestamp of the
	// writer's last refresh. Mappings are leases: a coordinator
	// re-writes its mapping periodically, and servers expire mappings
	// whose lease lapsed — the only way to collect a mapping whose
	// view's members all crashed, since no descendant view will ever
	// supersede it through the genealogy. (An extension beyond the
	// paper, which does not address dead-view garbage.)
	Refreshed int64
	// Deleted marks a dissolved mapping.
	Deleted bool
}

// wireSize is the entry's serialized size, for the network model. It must
// equal the length of the canonical encoding produced by appendEntry —
// TestWireSizeMatchesEncoding asserts the two cannot drift apart.
func (e Entry) wireSize() int { return 53 + len(e.LWG) + 12*len(e.Ancestors) }

// String renders the mapping in the paper's notation, e.g.
// "lwg(p1/2) -> hwg3(p1/5)".
func (e Entry) String() string {
	s := fmt.Sprintf("%s(%v) -> %v", string(e.LWG), e.View, e.HWG)
	if !e.HWGView.IsZero() {
		s += fmt.Sprintf("(%v)", e.HWGView)
	}
	if e.Deleted {
		s += " [deleted]"
	}
	return s
}

// DB is the mapping database replicated at each name server. It is a pure
// data structure (no I/O); Server drives it. The merge operation is
// deterministic and commutative, so any exchange order converges.
type DB struct {
	entries map[ids.LWGID]map[ids.ViewID]*Entry
	gen     map[ids.LWGID]*ids.Genealogy

	// generation counts observable state changes; the anti-entropy layer
	// uses it to skip rounds against peers it already reconciled with.
	generation uint64
	// digests caches the per-LWG summary used by digest/delta sync;
	// entries are invalidated by touch and recomputed lazily.
	digests map[ids.LWGID]Digest
	// dbHash caches the whole-database summary hash (valid when dbHashOK).
	dbHash   uint64
	dbHashOK bool
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		entries: make(map[ids.LWGID]map[ids.ViewID]*Entry),
		gen:     make(map[ids.LWGID]*ids.Genealogy),
		digests: make(map[ids.LWGID]Digest),
	}
}

// touch records an observable change to the LWG's entry set: it bumps the
// generation and invalidates the cached digests.
func (db *DB) touch(lwg ids.LWGID) {
	db.generation++
	delete(db.digests, lwg)
	db.dbHashOK = false
}

// Generation returns a counter that increases on every observable state
// change (entry added, replaced, tombstoned, garbage-collected or
// expired). Two calls returning the same value bracket a quiescent span.
func (db *DB) Generation() uint64 { return db.generation }

func (db *DB) genealogy(lwg ids.LWGID) *ids.Genealogy {
	g := db.gen[lwg]
	if g == nil {
		g = ids.NewGenealogy()
		db.gen[lwg] = g
	}
	return g
}

// Put applies one entry and reports whether the database changed. Newer
// versions replace older ones, tombstones are sticky, and obsolete
// ancestors are garbage-collected.
func (db *DB) Put(e Entry) bool {
	g := db.genealogy(e.LWG)
	g.Record(e.View, e.Ancestors)

	m := db.entries[e.LWG]
	if m == nil {
		m = make(map[ids.ViewID]*Entry)
		db.entries[e.LWG] = m
	}
	changed := false
	cur, ok := m[e.View]
	switch {
	case !ok:
		// An entry whose view is a strict ancestor of an existing
		// entry's view is already obsolete — refuse it rather than
		// inserting and immediately garbage-collecting (which would
		// report a spurious change on every re-merge from a lagging
		// replica). Do NOT return early: recording the entry's
		// ancestry above may have revealed that an existing entry is
		// itself collectible now, so the gc below must still run.
		obsolete := false
		for w := range m {
			if g.IsAncestor(e.View, w) {
				obsolete = true
				break
			}
		}
		if !obsolete {
			cp := e
			m[e.View] = &cp
			changed = true
		}
	case e.Ver > cur.Ver,
		e.Ver == cur.Ver && tieBreakPrefer(e, *cur):
		// Higher version wins outright — tombstones included, in both
		// directions. Entries are single-writer per view (the view's
		// coordinator), so the version totally orders the writes to one
		// slot: a higher-versioned tombstone supersedes the refreshes
		// before it, and a higher-versioned live entry was written
		// after any tombstone it displaces (the group was dissolved and
		// then re-founded under a recycled view ID — the resurrection
		// must not inherit the old incarnation's death). A stale delete
		// whose retry loses the version race falls through to the
		// default and is discarded; equal versions with different
		// content (impossible under the single-writer discipline, but
		// replicas must converge regardless) break ties
		// deterministically.
		cp := e
		m[e.View] = &cp
		changed = true
	}
	if db.gc(e.LWG) {
		changed = true
	}
	if changed {
		db.touch(e.LWG)
	}
	return changed
}

// tieBreakPrefer imposes a deterministic total order on equal-version
// entries so replica merge is commutative: the greater
// (HWG, HWGView, Refreshed, Deleted) tuple wins.
func tieBreakPrefer(e, cur Entry) bool {
	if e.HWG != cur.HWG {
		return e.HWG > cur.HWG
	}
	if e.HWGView != cur.HWGView {
		return cur.HWGView.Less(e.HWGView)
	}
	if e.Refreshed != cur.Refreshed {
		return e.Refreshed > cur.Refreshed
	}
	return e.Deleted && !cur.Deleted
}

// gc removes every entry whose view is a strict ancestor of another
// entry's view: once a merged (or otherwise succeeding) view's mapping is
// stored, the mappings of its ancestors are obsolete (Section 5.2,
// Table 4 step 4).
func (db *DB) gc(lwg ids.LWGID) bool {
	m := db.entries[lwg]
	g := db.genealogy(lwg)
	var obsolete []ids.ViewID
	for v := range m {
		for w := range m {
			if v != w && g.IsAncestor(v, w) {
				obsolete = append(obsolete, v)
				break
			}
		}
	}
	for _, v := range obsolete {
		delete(m, v)
	}
	return len(obsolete) > 0
}

// Merge applies a batch of entries (from a client update or another
// server's database) and returns the set of LWGs whose stored state
// changed, sorted and duplicate-free (nil when nothing changed). Callers
// use the dirty set to re-examine only the affected groups instead of
// rescanning the whole database.
func (db *DB) Merge(entries []Entry) []ids.LWGID {
	var dirty []ids.LWGID
	seen := make(map[ids.LWGID]bool)
	for _, e := range entries {
		if db.Put(e) && !seen[e.LWG] {
			seen[e.LWG] = true
			dirty = append(dirty, e.LWG)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

// Live returns the non-deleted mappings of the LWG in deterministic
// order.
func (db *DB) Live(lwg ids.LWGID) []Entry {
	var out []Entry
	for _, e := range db.entries[lwg] {
		if !e.Deleted {
			out = append(out, *e)
		}
	}
	sortEntries(out)
	return out
}

// All returns every entry of every LWG, tombstones included.
func (db *DB) All() []Entry {
	var out []Entry
	for _, m := range db.entries {
		for _, e := range m {
			out = append(out, *e)
		}
	}
	sortEntries(out)
	return out
}

// EntriesOf returns every entry of one LWG, tombstones included, in
// deterministic (view) order — the per-group delta payload.
func (db *DB) EntriesOf(lwg ids.LWGID) []Entry {
	m := db.entries[lwg]
	if len(m) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, *e)
	}
	sortEntries(out)
	return out
}

// LWGs returns the known light-weight group names in sorted order.
func (db *DB) LWGs() []ids.LWGID {
	out := make([]ids.LWGID, 0, len(db.entries))
	for l := range db.entries {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expire hard-deletes entries (live and tombstoned) whose lease lapsed:
// Refreshed older than ttl before now. It returns the LWGs that lost
// entries, sorted (nil when nothing was removed). Expired entries
// re-learned from a lagging replica carry the same stale timestamp and
// expire again, so the fleet converges; a live coordinator's periodic
// refresh (higher Ver, fresh timestamp) wins over any expiry.
func (db *DB) Expire(now int64, ttl time.Duration) []ids.LWGID {
	if ttl <= 0 {
		return nil
	}
	cutoff := now - int64(ttl)
	var dirty []ids.LWGID
	for lwg, m := range db.entries {
		changed := false
		for v, e := range m {
			if e.Refreshed < cutoff {
				delete(m, v)
				changed = true
			}
		}
		if len(m) == 0 {
			delete(db.entries, lwg)
		}
		if changed {
			db.touch(lwg)
			dirty = append(dirty, lwg)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

// Conflict reports whether the LWG has concurrent live views mapped onto
// different heavy-weight groups — the condition that triggers
// MULTIPLE-MAPPINGS callbacks (Section 6.1).
func (db *DB) Conflict(lwg ids.LWGID) bool {
	live := db.Live(lwg)
	for i := 1; i < len(live); i++ {
		if live[i].HWG != live[0].HWG {
			return true
		}
	}
	return false
}

// Dump renders the database in the style of the paper's Tables 3 and 4:
// one line per LWG listing its live view-to-view mappings.
func (db *DB) Dump() string {
	var b strings.Builder
	for _, lwg := range db.LWGs() {
		live := db.Live(lwg)
		if len(live) == 0 {
			continue
		}
		parts := make([]string, len(live))
		for i, e := range live {
			hv := ""
			if !e.HWGView.IsZero() {
				hv = fmt.Sprintf("(%v)", e.HWGView)
			}
			parts[i] = fmt.Sprintf("%v -> %v%s", e.View, e.HWG, hv)
		}
		fmt.Fprintf(&b, "LWG %s: %s\n", string(lwg), strings.Join(parts, ", "))
	}
	return b.String()
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].LWG != es[j].LWG {
			return es[i].LWG < es[j].LWG
		}
		return es[i].View.Less(es[j].View)
	})
}
