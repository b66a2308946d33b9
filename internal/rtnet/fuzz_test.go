package rtnet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"plwg/internal/metrics"
	"plwg/internal/wire/wiretest"
)

// FuzzReassemble fragments arbitrary payloads, replays the chunks through
// a seed-derived mix of reordering and duplication, and checks the
// reassembled message is byte-identical. It also feeds the raw payload to
// the reassembler as a datagram, which must reject or survive it without
// panicking.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte("hello"), uint64(1))
	f.Add(bytes.Repeat([]byte{0xAB}, fragPayload+1), uint64(7))
	f.Add([]byte{}, uint64(0))
	f.Add(bytes.Repeat([]byte("plwg"), fragPayload), uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 4*fragPayload {
			data = data[:4*fragPayload]
		}
		chunks := fragment(seed, data)
		if chunks == nil {
			t.Fatal("fragment refused a valid payload")
		}

		r := rand.New(rand.NewSource(int64(seed)))
		deliver := append([][]byte(nil), chunks...)
		// Duplicate a few chunks, then shuffle the whole batch.
		for i := 0; i < len(chunks) && i < 3; i++ {
			deliver = append(deliver, chunks[r.Intn(len(chunks))])
		}
		r.Shuffle(len(deliver), func(i, j int) {
			deliver[i], deliver[j] = deliver[j], deliver[i]
		})

		re := newReassembler()
		var got []byte
		for _, d := range deliver {
			out, err := re.add(fragAddr(1), d)
			if err != nil {
				t.Fatalf("add rejected a generated chunk: %v", err)
			}
			if out != nil {
				got = out
			}
		}
		if got == nil && len(data) > 0 {
			t.Fatal("reassembly never completed")
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("reassembly mismatch: %d vs %d bytes", len(got), len(data))
		}

		// Arbitrary bytes must never panic the reassembler.
		_, _ = re.add(fragAddr(1), data)
	})
}

// FuzzDatagramDecode drives the receive path — datagram framing, then
// reassembly and envelope decoding per frame — over arbitrary bytes with
// a fresh reassembler. It must not panic and must stay inside
// wiretest.AllocBound. A bundle whose framing is bad counts exactly one
// malformed datagram and delivers nothing; one whose framing is good
// yields exactly what its frames yield sent as datagrams of their own.
func FuzzDatagramDecode(f *testing.F) {
	registerFragTestMsg()
	encode := func(data []byte) []byte {
		env := &envelope{From: 3, Addr: "hwg/1", Uni: true, Msg: &fragTestMsg{Data: data}}
		b, err := encodeEnvelopeFramed(env)
		if err != nil {
			f.Fatal(err)
		}
		defer b.Release()
		return bytes.Clone(b.B)
	}
	frame := func(msgID uint64, data string) []byte {
		fr := encode([]byte(data))
		writeFragHeader(fr, msgID, 0, 1)
		return fr
	}
	bundle := func(frames ...[]byte) []byte {
		out := append([]byte(nil), bundleMagic[:]...)
		for _, fr := range frames {
			out = binary.AppendUvarint(out, uint64(len(fr)))
			out = append(out, fr...)
		}
		return out
	}
	a, b := frame(1, "a"), frame(2, "b")
	bigChunks := fragment(3, encode(make([]byte, fragPayload+fragPayload/4))[fragHeader:])
	f.Add(a)
	f.Add(bundle(a, b))
	f.Add(bundle(a, bundle(a, b)))            // a bundle nested in a bundle
	f.Add(bundle(a, []byte{}))                // a zero-length frame
	f.Add(append(bundle(a), 0x7f, 0x01))      // a length that runs past the end
	f.Add(bundle(bigChunks[1], b))            // one chunk of a > 32 KiB message
	f.Add(bundle(bigChunks[1], bigChunks[1])) // the same chunk twice

	from := fragAddr(1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		decode := func(frames ...[]byte) ([]envelope, int64) {
			reg := metrics.NewRegistry()
			tr := &Transport{}
			tr.Instrument(reg)
			re := newReassembler()
			var envs []envelope
			for _, fr := range frames {
				envs = tr.decodeInto(envs, re, from, fr)
			}
			return envs, reg.Totals()["rtnet_datagrams_malformed_total"]
		}
		wiretest.AllocBound(t, raw, func() {
			(&Transport{}).decodeInto(nil, newReassembler(), from, raw)
		})
		envs, bad := decode(raw)
		if !isBundle(raw) {
			if bad+int64(len(envs)) > 1 {
				t.Fatalf("one frame gave %d envelopes and %d malformed", len(envs), bad)
			}
			return
		}
		frames := splitFrames(raw)
		framed := len(frames) > 0
		for _, fr := range frames {
			framed = framed && len(fr) >= fragHeader && fr[0] == 0xB6 && fr[1] == 0x1D
		}
		if !framed {
			if bad != 1 || len(envs) != 0 {
				t.Fatalf("bad framing: %d malformed and %d envelopes, want 1 and none", bad, len(envs))
			}
			return
		}
		want, wantBad := decode(frames...)
		if bad != wantBad || !reflect.DeepEqual(envs, want) {
			t.Fatalf("bundle gave %d envelopes, %d malformed; its frames alone gave %d, %d",
				len(envs), bad, len(want), wantBad)
		}
	})
}
