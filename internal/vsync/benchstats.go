package vsync

import (
	"testing"

	"plwg/internal/ids"
	"plwg/internal/wire"
)

// benchPayload stands in for an application payload in the codec
// microbenchmarks: an opaque byte blob, like the lwgData the LWG layer
// actually ships inside msgData.
type benchPayload struct {
	Data []byte
}

// WireSize implements Payload.
func (p *benchPayload) WireSize() int { return len(p.Data) }

// WireID implements wire.Marshaler.
func (p *benchPayload) WireID() byte { return wireBenchPayload }

// MarshalWire implements wire.Marshaler.
func (p *benchPayload) MarshalWire(b *wire.Buffer) bool {
	b.Bytes(p.Data)
	return true
}

// benchMsgData builds a representative hot-path datagram: a 1 KiB data
// message carrying a cumulative ack vector, as the steady state of the
// Figure 2 workload produces.
func benchMsgData() *msgData {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &msgData{
		GID:     7,
		View:    ids.ViewID{Coord: 3, Seq: 12},
		Sender:  5,
		Seq:     42,
		Payload: &benchPayload{Data: payload},
		Acks: map[ids.ProcessID]uint64{
			0: 40, 1: 39, 2: 41, 3: 38, 4: 42, 5: 37, 6: 40, 7: 41,
		},
	}
}

// CodecStat is one codec microbenchmark result.
type CodecStat struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
}

// CodecBenchStats measures the binary codec — encode and decode of the
// representative data message — and returns the results for the
// benchmark's wire.* layer ceilings.
func CodecBenchStats() []CodecStat {
	msg := benchMsgData()

	buf := wire.GetBuffer()
	wire.Encode(buf, msg)
	wireBytes := append([]byte(nil), buf.B...)
	buf.Release()

	mk := func(name string, fn func(b *testing.B)) CodecStat {
		r := testing.Benchmark(fn)
		return CodecStat{Name: name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: float64(r.AllocsPerOp())}
	}
	return []CodecStat{
		mk("encode-wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bb := wire.GetBuffer()
				wire.Encode(bb, msg)
				bb.Release()
			}
		}),
		mk("decode-wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Decode(wire.NewReader(wireBytes)); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}
