package vsync

import (
	"testing"

	"plwg/internal/ids"
	"plwg/internal/wire"
	"plwg/internal/wire/wiretest"
)

func vid(c ids.ProcessID, s uint64) ids.ViewID { return ids.ViewID{Coord: c, Seq: s} }

// BenchmarkCodecEncode encodes the representative hot-path data message
// into a pooled buffer — the real transport's path.
func BenchmarkCodecEncode(b *testing.B) {
	msg := benchMsgData()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := wire.GetBuffer()
		if !wire.Encode(bb, msg) {
			b.Fatal("codec refused the message")
		}
		bb.Release()
	}
}

// BenchmarkCodecDecode is the receive-side counterpart.
func BenchmarkCodecDecode(b *testing.B) {
	wireBytes := wiretest.Encode(b, benchMsgData())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(wire.NewReader(wireBytes)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzVsyncCodec feeds arbitrary bytes to the decoders of every
// heavy-weight group message (see wiretest.FuzzCodec for the contract).
func FuzzVsyncCodec(f *testing.F) { wiretest.FuzzCodec(f) }

// TestCodecRoundTrip pins the codec against the source of truth: a
// message must decode back to exactly what was encoded.
func TestCodecRoundTrip(t *testing.T) {
	msgs := []wire.Marshaler{
		benchMsgData(),
		&msgData{GID: 1, View: vid(2, 9), Sender: 2, Seq: 1},
		// The smallest copy a retransmission can carry: seven one-byte
		// fields, the minimum getMsgDatas checks its count against.
		&msgRetrans{GID: 1, Msgs: []*msgData{{GID: 1, View: vid(2, 9), Sender: 2, Seq: 1}}},
		&msgAckVector{GID: 2, View: vid(5, 8), From: 3,
			MaxSeq: map[ids.ProcessID]uint64{1: 10, 4: 7}},
		&msgHeartbeat{GID: 9, From: 2, View: vid(2, 2), MaxSeq: 55},
	}
	for _, m := range msgs {
		wiretest.RoundTrip(t, m)
	}
}

// TestCodecTruncated verifies corrupt input fails cleanly rather than
// panicking or fabricating a message.
func TestCodecTruncated(t *testing.T) {
	buf := wire.GetBuffer()
	defer buf.Release()
	wire.Encode(buf, benchMsgData())
	for cut := 0; cut < len(buf.B); cut += 7 {
		if _, err := wire.Decode(wire.NewReader(buf.B[:cut])); err == nil {
			// Some prefixes can decode to a valid shorter message only
			// if every field boundary aligns; for msgData the payload
			// length prefix makes that impossible.
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}
