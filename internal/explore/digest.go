package explore

import (
	"sort"
	"strconv"

	"plwg/internal/ids"
)

// State digest for the bounded enumerator (see enumerate.go).
//
// The digest is a canonical fingerprint of the protocol-visible state of a
// world: per-process LWG phase/view/mapping/pre-install backlog, vsync
// membership and views, the naming databases' live mappings, the crash set
// and the applied partition. Two worlds with equal digests are treated as
// the same state and the enumerator explores successors from only one of
// them.
//
// Canonicalisation makes the digest history-independent where the raw
// state is not: view identifiers carry coordinator-local sequence numbers
// and HWG identifiers come from an allocation counter, so two runs that
// reach protocol-equivalent states through different interleavings hold
// different raw identifiers. The digest therefore renames every ViewID and
// HWGID to a small index assigned by first appearance in a deterministic
// scan order (processes ascending, groups sorted, servers ascending).
// Genealogy ancestry, lease timestamps, entry version counters and
// in-flight network messages are deliberately excluded: they encode how
// the state was reached (or when), not what it is.
//
// The abstraction makes pruning aggressive but approximate, in the spirit
// of bitstate hashing: a pruned state's in-flight traffic may differ from
// the representative's, so coverage is of the abstracted state graph, not
// the concrete one. Soundness of findings is unaffected — every reported
// wedge or violation comes with a concrete schedule that replays it.
//
// The rendering is built with manual byte appends into a buffer reused
// across calls: the probe-trajectory memoisation (engine.go) digests every
// settle-chunk boundary of every liveness probe, so this function runs an
// order of magnitude more often than it did when it fingerprinted one
// state per run. The byte layout is frozen — digests are persisted in
// checkpoints, and changing a single byte of the rendering would silently
// invalidate every in-flight sweep (digestReference in the tests pins it).

// canon renames raw identifiers to first-appearance indices. The slices
// are reused across digest calls; linear scans beat maps at the handful of
// identifiers a small-scope world holds.
type canon struct {
	views []ids.ViewID
	hwgs  []ids.HWGID
}

func (c *canon) reset() {
	c.views = c.views[:0]
	c.hwgs = c.hwgs[:0]
}

// appendView appends the canonical view token ("-" for the zero view,
// "v<idx>" otherwise).
func (c *canon) appendView(b []byte, v ids.ViewID) []byte {
	if v.IsZero() {
		return append(b, '-')
	}
	for i, x := range c.views {
		if x == v {
			return strconv.AppendInt(append(b, 'v'), int64(i), 10)
		}
	}
	c.views = append(c.views, v)
	return strconv.AppendInt(append(b, 'v'), int64(len(c.views)-1), 10)
}

// appendHWG appends the canonical HWG token ("-" for NoHWG, "h<idx>"
// otherwise).
func (c *canon) appendHWG(b []byte, h ids.HWGID) []byte {
	if h == ids.NoHWG {
		return append(b, '-')
	}
	for i, x := range c.hwgs {
		if x == h {
			return strconv.AppendInt(append(b, 'h'), int64(i), 10)
		}
	}
	c.hwgs = append(c.hwgs, h)
	return strconv.AppendInt(append(b, 'h'), int64(len(c.hwgs)-1), 10)
}

// appendMembers appends the fmt rendering of a member set: "{p0,p1}".
func appendMembers(b []byte, ms ids.Members) []byte {
	b = append(b, '{')
	for i, p := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, 'p'), int64(p), 10)
	}
	return append(b, '}')
}

// digest fingerprints the world's protocol-visible state.
func (w *world) digest() uint64 {
	c := &w.dcanon
	c.reset()
	b := w.dbuf[:0]

	b = append(b, "cut="...)
	b = strconv.AppendInt(b, int64(w.cut), 10)
	b = append(b, '\n')
	for i := 0; i < w.sched.Nodes; i++ {
		pid := ids.ProcessID(i)
		ep := w.Endpoints[i]
		b = strconv.AppendInt(append(b, 'p'), int64(i), 10)
		if w.crashed[pid] {
			b = append(b, " crashed=true\n"...)
			continue // a crashed process's state is unreachable forever
		}
		b = append(b, " crashed=false\n"...)
		for _, l := range w.lwgList {
			phase := ep.LWGPhase(l)
			if phase == "" {
				continue
			}
			b = append(b, " lwg "...)
			b = append(b, l...)
			b = append(b, ' ')
			b = append(b, phase...)
			if v, ok := ep.LWGView(l); ok {
				b = append(b, ' ')
				b = c.appendView(b, v.ID)
				b = appendMembers(b, v.Members)
			}
			if h, ok := ep.Mapping(l); ok {
				b = append(b, " on "...)
				b = c.appendHWG(b, h)
			}
			// The backlog count is bucketed: the exact depth encodes run
			// history (every send grows it), and an unbounded counter in
			// the digest would make the state graph infinite.
			if n := ep.PreInstallBuffered(l); n > 2 {
				b = append(b, " buf=2+"...)
			} else if n > 0 {
				b = append(b, " buf="...)
				b = strconv.AppendInt(b, int64(n), 10)
			}
			b = append(b, '\n')
		}
		stack := ep.HWGStack()
		for _, g := range stack.Groups() {
			b = append(b, " hwg "...)
			b = c.appendHWG(b, g)
			v, ok := stack.CurrentView(g)
			if !ok {
				b = append(b, " joining\n"...)
				continue
			}
			b = append(b, ' ')
			b = c.appendView(b, v.ID)
			b = appendMembers(b, v.Members)
			b = append(b, '\n')
		}
	}
	for _, srv := range w.serverList {
		db := w.Servers[srv].DB()
		// The doubled p is a historical quirk ("ns p" + the p<N> String of
		// the id); it is frozen into persisted digests.
		b = append(b, "ns p"...)
		b = strconv.AppendInt(append(b, 'p'), int64(srv), 10)
		b = append(b, '\n')
		for _, l := range db.LWGs() {
			for _, e := range db.Live(l) {
				b = append(b, " map "...)
				b = append(b, l...)
				b = append(b, ' ')
				b = c.appendView(b, e.View)
				b = append(b, " -> "...)
				b = c.appendHWG(b, e.HWG)
				b = append(b, '\n')
			}
		}
	}

	w.dbuf = b
	// Inlined FNV-64a over the buffer (hash/fnv would allocate the state).
	h := uint64(14695981039346656037)
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

func sortedServerPids[V any](m map[ids.ProcessID]V) []ids.ProcessID {
	out := make([]ids.ProcessID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
