package naming

import (
	"testing"

	"plwg/internal/ids"
	"plwg/internal/wire"
	"plwg/internal/wire/wiretest"
)

// FuzzSyncCodec feeds arbitrary bytes to the decoder of every naming
// message — request, reply, full sync, digest, delta and the
// MULTIPLE-MAPPINGS callback: none may panic or allocate beyond
// wiretest.AllocBound, and anything that decodes must re-encode and
// decode back to the same message (round-trip stability), so a
// corrupted or adversarial datagram cannot corrupt reconciliation state.
func FuzzSyncCodec(f *testing.F) {
	f.Add([]byte{wireMsgDelta, 0x00, 0x00, 0xff})
	f.Add(wiretest.Encode(f, &msgDigest{From: -1, Version: 99}))
	wiretest.FuzzCodec(f)
}

// TestSyncCodecRoundTrip pins exact round-trips for representative
// messages (the deterministic complement of the fuzz target).
func TestSyncCodecRoundTrip(t *testing.T) {
	msgs := []wire.Marshaler{
		&msgDigest{From: 2, Version: digestVersion, Gen: 5, DBHash: 999},
		&msgDigest{
			From: 0, Version: digestVersion, Reply: true,
			Digests: []LWGDigest{{LWG: "g", D: Digest{Count: 3, MaxVer: 2, Hash: 7}}},
		},
		&msgDelta{From: 1, Reply: true},
		&msgDelta{From: 3, Groups: []groupDelta{
			{LWG: "x", D: Digest{Count: 1, MaxVer: 1, Hash: 2}, Entries: []Entry{
				{LWG: "x", View: ids.ViewID{Coord: 1, Seq: 2}, HWG: 3, Ver: 1},
			}},
		}},
	}
	for _, m := range msgs {
		wiretest.RoundTrip(t, m)
	}
}
