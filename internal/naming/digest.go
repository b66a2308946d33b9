package naming

import (
	"encoding/binary"
	"fmt"

	"plwg/internal/ids"
)

// This file implements the per-LWG summaries behind digest/delta
// anti-entropy. Instead of shipping the full database every round
// (O(total entries) on the wire), a replica summarizes each LWG's entry
// set as a Digest — entry count, maximum version, and a content hash over
// the canonical encoding of the sorted entries (tombstones included, so a
// tombstone-only difference is still visible) — and the whole database as
// a single 64-bit hash over the sorted digest vector. A sync round then
// exchanges summaries first and entries only for the groups whose
// summaries differ.

// Digest summarizes one LWG's stored entry set.
type Digest struct {
	// Count is the number of stored entries, tombstones included.
	Count uint32
	// MaxVer is the highest entry version stored.
	MaxVer uint64
	// Hash is FNV-1a over the canonical encoding of the sorted entries.
	Hash uint64
}

// IsZero reports whether d summarizes an empty (unknown) group.
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders the digest compactly for traces.
func (d Digest) String() string {
	return fmt.Sprintf("n=%d ver=%d h=%016x", d.Count, d.MaxVer, d.Hash)
}

// LWGDigest pairs a group name with its digest (one element of the
// digest vector exchanged by anti-entropy).
type LWGDigest struct {
	LWG ids.LWGID
	D   Digest
}

// wireSize is the element's serialized size, for the network model.
func (d LWGDigest) wireSize() int { return 2 + len(d.LWG) + 20 }

// FNV-1a 64-bit.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// appendEntry appends the canonical fixed-width binary encoding of the
// entry. It is the ground truth both for the digest hashes (every replica
// must hash identical bytes for identical state) and for Entry.wireSize:
// the encoded length is exactly 53 + len(LWG) + 12*len(Ancestors).
func appendEntry(b []byte, e *Entry) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.LWG)))
	b = append(b, e.LWG...)
	b = appendViewID(b, e.View)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Ancestors)))
	for _, a := range e.Ancestors {
		b = appendViewID(b, a)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(e.HWG))
	b = appendViewID(b, e.HWGView)
	b = binary.LittleEndian.AppendUint64(b, e.Ver)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Refreshed))
	if e.Deleted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func appendViewID(b []byte, v ids.ViewID) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(v.Coord))
	return binary.LittleEndian.AppendUint64(b, v.Seq)
}

// DigestOf returns the summary of one LWG's entry set (the zero Digest
// for an unknown group). Summaries are cached and recomputed only after
// the group's entries change.
func (db *DB) DigestOf(lwg ids.LWGID) Digest {
	if d, ok := db.digests[lwg]; ok {
		return d
	}
	m := db.entries[lwg]
	if len(m) == 0 {
		return Digest{}
	}
	entries := db.EntriesOf(lwg)
	d := Digest{Count: uint32(len(entries))}
	h := uint64(fnvOffset)
	var buf []byte
	for i := range entries {
		if entries[i].Ver > d.MaxVer {
			d.MaxVer = entries[i].Ver
		}
		buf = appendEntry(buf[:0], &entries[i])
		h = fnvBytes(h, buf)
	}
	d.Hash = h
	db.digests[lwg] = d
	return d
}

// DigestVector returns the digest of every non-empty LWG, sorted by
// group name — the summary a replica sends instead of its database.
func (db *DB) DigestVector() []LWGDigest {
	out := make([]LWGDigest, 0, len(db.entries))
	for _, lwg := range db.LWGs() {
		if len(db.entries[lwg]) == 0 {
			continue
		}
		out = append(out, LWGDigest{LWG: lwg, D: db.DigestOf(lwg)})
	}
	return out
}

// Hash returns a single summary hash over the whole database (the sorted
// digest vector). Two replicas with equal hashes store the same entries,
// up to 64-bit collision; anti-entropy uses it as the cheap first-round
// probe and relies on the periodic forced exchange (maxIdleSkips)
// to bound the damage of a collision.
func (db *DB) Hash() uint64 {
	if db.dbHashOK {
		return db.dbHash
	}
	h := uint64(fnvOffset)
	var buf []byte
	for _, d := range db.DigestVector() {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.LWG)))
		buf = append(buf, d.LWG...)
		buf = binary.LittleEndian.AppendUint32(buf, d.D.Count)
		buf = binary.LittleEndian.AppendUint64(buf, d.D.MaxVer)
		buf = binary.LittleEndian.AppendUint64(buf, d.D.Hash)
		h = fnvBytes(h, buf)
	}
	db.dbHash, db.dbHashOK = h, true
	return h
}

// diffDigests merge-walks two sorted digest vectors and returns the
// groups whose summaries differ, including groups present on only one
// side, in sorted order.
func diffDigests(ours, theirs []LWGDigest) []ids.LWGID {
	var out []ids.LWGID
	i, j := 0, 0
	for i < len(ours) && j < len(theirs) {
		switch {
		case ours[i].LWG < theirs[j].LWG:
			out = append(out, ours[i].LWG)
			i++
		case ours[i].LWG > theirs[j].LWG:
			out = append(out, theirs[j].LWG)
			j++
		default:
			if ours[i].D != theirs[j].D {
				out = append(out, ours[i].LWG)
			}
			i++
			j++
		}
	}
	for ; i < len(ours); i++ {
		out = append(out, ours[i].LWG)
	}
	for ; j < len(theirs); j++ {
		out = append(out, theirs[j].LWG)
	}
	return out
}
