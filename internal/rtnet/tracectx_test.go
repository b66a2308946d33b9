package rtnet

import (
	"bytes"
	"testing"

	"plwg/internal/wire"
)

// encodeEnvelope serializes the envelope without the fragment-header
// padding of the send path. The caller must Release the buffer.
func encodeEnvelope(env *envelope) (*wire.Buffer, error) {
	b := wire.GetBuffer()
	if err := encodeEnvelopeInto(b, env); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// TestEnvelopeHeaderFlags pins the header byte: the layout version in
// the low nibble, the trace context and unicast as flag bits, and every
// combination decoding back to the envelope that was sent — the trace
// context rides between the header and the body.
func TestEnvelopeHeaderFlags(t *testing.T) {
	registerFragTestMsg()
	tc := wire.TraceCtx{Origin: 4, VT: 123456, Wall: 1700000000000000001, Sampled: true, Ref: "hwg/9"}
	cases := []struct {
		name string
		uni  bool
		tc   *wire.TraceCtx
		hdr  byte
	}{
		{"multicast", false, nil, envVersion},
		{"unicast", true, nil, envVersion | envFlagUni},
		{"multicast+tc", false, &tc, envVersion | envFlagTC},
		{"unicast+tc", true, &tc, envVersion | envFlagTC | envFlagUni},
	}
	for _, c := range cases {
		env := &envelope{From: 4, Uni: c.uni, Addr: "hwg/9", Msg: &fragTestMsg{Data: []byte("payload")}, tc: c.tc}
		buf, err := encodeEnvelope(env)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if buf.B[0] != c.hdr {
			t.Fatalf("%s: header = %#02x, want %#02x", c.name, buf.B[0], c.hdr)
		}
		dec, err := decodeEnvelope(buf.B)
		buf.Release()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (dec.tc == nil) != (c.tc == nil) || (c.tc != nil && *dec.tc != *c.tc) {
			t.Fatalf("%s: trace context: got %+v, want %+v", c.name, dec.tc, c.tc)
		}
		if dec.From != env.From || dec.Uni != env.Uni || dec.Addr != env.Addr {
			t.Fatalf("%s: envelope header mismatch: %+v vs %+v", c.name, dec, env)
		}
		m, ok := dec.Msg.(*fragTestMsg)
		if !ok || !bytes.Equal(m.Data, []byte("payload")) {
			t.Fatalf("%s: body corrupted: %#v", c.name, dec.Msg)
		}
	}
}

// TestEnvelopeUnknownHeaderRejected walks every header byte: only the
// four legal ones decode. In particular the tags of the retired gob
// envelopes (0 and 3) and an unknown flag bit are malformed datagrams,
// not something to guess at.
func TestEnvelopeUnknownHeaderRejected(t *testing.T) {
	registerFragTestMsg()
	tc := wire.TraceCtx{Origin: 1, Ref: "x"}
	plain, err := encodeEnvelope(&envelope{From: 1, Msg: &fragTestMsg{Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Release()
	stamped, err := encodeEnvelope(&envelope{From: 1, Msg: &fragTestMsg{Data: []byte("x")}, tc: &tc})
	if err != nil {
		t.Fatal(err)
	}
	defer stamped.Release()
	for h := 0; h < 256; h++ {
		hdr := byte(h)
		body := plain.B
		if hdr&envFlagTC != 0 {
			body = stamped.B
		}
		data := append([]byte{hdr}, body[1:]...)
		_, err := decodeEnvelope(data)
		legal := hdr&^envFlagMask == envVersion
		if legal && err != nil {
			t.Errorf("header %#02x: %v", hdr, err)
		}
		if !legal && err == nil {
			t.Errorf("header %#02x decoded; want it rejected", hdr)
		}
	}
}

// TestEnvelopeTraceCtxTruncated checks that every strict prefix of a
// stamped envelope fails to decode rather than mis-parsing: the trace
// context sits in front of the body, so corruption there must not be
// interpreted as message bytes.
func TestEnvelopeTraceCtxTruncated(t *testing.T) {
	registerFragTestMsg()
	tc := wire.TraceCtx{Origin: 1, VT: 2, Wall: 3, Sampled: true, Ref: "hwg/1"}
	env := &envelope{From: 1, Msg: &fragTestMsg{Data: []byte("abc")}, tc: &tc}
	buf, err := encodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	for cut := 1; cut < len(buf.B); cut++ {
		if _, err := decodeEnvelope(buf.B[:cut]); err == nil {
			t.Fatalf("truncated envelope (%d of %d bytes) decoded", cut, len(buf.B))
		}
	}
}
