package rtnet

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/trace"
	"plwg/internal/wire"
	"plwg/internal/wire/wiretest"
)

// This package links all three protocol packages, so its test binary
// sees every identifier wire.Register is ever given (plus the test
// message of this package): the whole-registry tests live here.

var updateGolden = flag.Bool("update", false, "rewrite testdata/wiresize.golden")

// TestWireRoundTrip is the one round-trip table: a zero-value, a
// populated and a large sample of every registered wire type must
// encode, decode and compare equal.
func TestWireRoundTrip(t *testing.T) {
	registerFragTestMsg()
	samples := wiretest.Samples(t)
	if want := len(wire.RegisteredIDs()) * len(wiretest.Variants); len(samples) != want {
		t.Fatalf("%d samples for %d registered ids, want %d", len(samples), len(wire.RegisteredIDs()), want)
	}
	for _, s := range samples {
		t.Run(s.Name(), func(t *testing.T) { wiretest.RoundTrip(t, s.Msg) })
	}

	// The nested shapes the protocols actually produce must be among
	// them: a view installation, a flush fill and a retransmission
	// carrying data messages that carry a packed LWG batch.
	for _, s := range samples {
		typ := fmt.Sprintf("%T", s.Msg)
		if s.Variant != "large" || (typ != "*vsync.msgNewView" && typ != "*vsync.msgFlushFill" && typ != "*vsync.msgRetrans") {
			continue
		}
		inside := strings.Join(wiretest.Reachable(s.Msg), " ")
		for _, want := range []string{"*vsync.msgData", "*core.lwgBatch", "*core.lwgData"} {
			if !strings.Contains(inside, want) {
				t.Errorf("%s carries no %s", s.Name(), want)
			}
		}
	}
}

// TestWireTypesComplete lists every message type the retired
// gob.Register calls named — everything that can cross a socket — and
// checks each has a registered decoder, inside its package's range.
func TestWireTypesComplete(t *testing.T) {
	ranges := map[string][2]byte{"vsync": {1, 31}, "core": {32, 63}, "naming": {64, 95}}
	want := map[string][]string{
		"vsync": {"msgData", "msgNack", "msgRetrans", "msgHeartbeat",
			"msgPresence", "msgJoinReq", "msgLeaveReq", "msgStop", "msgAbort",
			"msgFlushOk", "msgFlushPull", "msgFlushFill", "msgNewView", "benchPayload"},
		"core": {"lwgData", "lwgBatch", "lwgJoinReq", "lwgLeaveReq", "lwgMoved", "lwgStop",
			"lwgFlushOk", "lwgView", "lwgAnnounce", "lwgMergeViews", "lwgMappedViews",
			"lwgSwitch", "lwgSwitchReady"},
		"naming": {"msgRequest", "msgReply", "msgDigest", "msgDelta", "MsgMultipleMappings"},
	}
	have := make(map[string]byte)
	for id, m := range wiretest.Prototypes(t) {
		have[fmt.Sprintf("%T", m)] = id
	}
	for pkg, names := range want {
		for _, name := range names {
			typ := "*" + pkg + "." + name
			id, ok := have[typ]
			if !ok {
				t.Errorf("%s has no wire decoder", typ)
				continue
			}
			if r := ranges[pkg]; id < r[0] || id > r[1] {
				t.Errorf("%s has wire id %d, outside %s's range %d–%d", typ, id, pkg, r[0], r[1])
			}
			delete(have, typ)
		}
	}
	for typ, id := range have {
		if id <= 95 {
			t.Errorf("%s (wire id %d) is registered in a protocol range but missing from this list", typ, id)
		}
	}
}

// retiredEnvelopes builds datagram bodies whose message carries a retired
// wire identifier: bare, in front of a length prefix, and in front of the
// body the old codec wrote (a group or sender, a view id, two process ids
// and a sequence number).
func retiredEnvelopes(id byte) [][]byte {
	var out [][]byte
	for _, body := range [][]byte{{}, {0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}, {8, 2, 4, 2, 2, 12}} {
		var b wire.Buffer
		b.Byte(envVersion)
		b.PID(1)
		b.String("hwg/4")
		b.Byte(id)
		out = append(out, append(b.B, body...))
	}
	return out
}

// TestRetiredWireIDsAreUnknown: identifiers 2 (the total-order token), 3
// (the per-message ack), 4 (the standalone ack vector) and 68 (the
// full-database push) were deleted with their protocols and are never
// reassigned. A datagram carrying one is a malformed datagram like
// any other unknown identifier: counted, no envelope for the protocol
// loop, so no reply.
func TestRetiredWireIDsAreUnknown(t *testing.T) {
	if got := wire.RetiredIDs(); !bytes.Equal(got, []byte{2, 3, 4, 68}) {
		t.Fatalf("retired wire ids = %v, want [2 3 4 68]", got)
	}
	tr := &Transport{}
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	reasm := newReassembler()
	sent := int64(0)
	for _, id := range wire.RetiredIDs() {
		for _, env := range retiredEnvelopes(id) {
			if _, err := decodeEnvelope(env); err == nil || !strings.Contains(err.Error(), "unknown type id") {
				t.Errorf("wire id %d: decodeEnvelope error = %v, want unknown type id", id, err)
			}
			sent++
			dgram := make([]byte, fragHeader, fragHeader+len(env))
			writeFragHeader(dgram, uint64(sent), 0, 1)
			if envs := tr.decodeInto(nil, reasm, netip.AddrPort{}, append(dgram, env...)); len(envs) != 0 {
				t.Errorf("wire id %d produced an envelope: %+v", id, envs)
			}
		}
	}
	if got := reg.Totals()["rtnet_datagrams_malformed_total"]; got != sent {
		t.Fatalf("rtnet_datagrams_malformed_total = %d, want %d", got, sent)
	}
}

// TestWireSizeGolden pins WireSize() of every sample. WireSize is the
// simulator's wire model, not the codec's byte count: a change moves
// every virtual-time record, so it has to be deliberate (-update).
func TestWireSizeGolden(t *testing.T) {
	registerFragTestMsg()
	var b bytes.Buffer
	for _, s := range wiretest.Samples(t) {
		sz, ok := s.Msg.(interface{ WireSize() int })
		if !ok {
			t.Fatalf("%s has no WireSize", s.Name())
		}
		fmt.Fprintf(&b, "%s %d\n", s.Name(), sz.WireSize())
	}
	const path = "testdata/wiresize.golden"
	if *updateGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("WireSize of the samples differs from %s (run with -update if meant):\n%s", path, b.String())
	}
}

// noCodecMsg cannot be sent: it does not implement wire.Marshaler.
type noCodecMsg struct{}

func (noCodecMsg) WireSize() int { return 1 }

// halfCodecMsg cannot be sent either: it stands for a data message
// whose payload has no codec, so its MarshalWire reports false.
type halfCodecMsg struct{}

func (halfCodecMsg) WireSize() int                 { return 1 }
func (halfCodecMsg) WireID() byte                  { return 254 }
func (halfCodecMsg) MarshalWire(*wire.Buffer) bool { return false }

// TestUnencodableMessageIsASendError: a message without a codec, or
// carrying content without one, is counted and traced — not dropped in
// silence, which is how the old gob fallback hid an unregistered type.
func TestUnencodableMessageIsASendError(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	tr := NewTransport(NewDriver(1), 0, conn, map[ids.ProcessID]*net.UDPAddr{1: peer})
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	var rec trace.Recorder
	tr.TraceContext(&rec, 1)

	tr.Multicast(0, "hwg/1", noCodecMsg{})
	tr.Unicast(0, 1, "ns/0", halfCodecMsg{})

	if got := reg.Totals()["rtnet_send_errors_total"]; got != 2 {
		t.Fatalf("rtnet_send_errors_total = %d, want 2", got)
	}
	if got := reg.Totals()["rtnet_datagrams_sent_total"]; got != 0 {
		t.Fatalf("%d datagrams sent, want 0", got)
	}
	evs := rec.Filter("net", trace.WireSendError)
	if len(evs) != 2 || evs[0].Data != "rtnet.noCodecMsg" || evs[0].Ref != "hwg/1" ||
		evs[1].Data != "rtnet.halfCodecMsg" || evs[1].Ref != "ns/0" {
		t.Fatalf("send-error events: %+v", evs)
	}
}

// FuzzEnvelopeDecode feeds arbitrary datagram bodies — header byte,
// optional trace context, addressing, message — to decodeEnvelope. It
// must not panic, must stay inside wiretest.AllocBound, and whatever it
// accepts must re-encode and decode back to the same envelope.
func FuzzEnvelopeDecode(f *testing.F) {
	registerFragTestMsg()
	tc := &wire.TraceCtx{Origin: 2, VT: 77, Wall: 1700000000000000001, Sampled: true, Ref: "hwg/3"}
	for i, s := range wiretest.Samples(f) {
		msg, ok := s.Msg.(interface {
			wire.Marshaler
			WireSize() int
		})
		if !ok {
			f.Fatalf("%s is not a message", s.Name())
		}
		env := &envelope{From: 2, Addr: "hwg/3", Uni: i%2 == 0, Msg: msg}
		if i%3 == 0 {
			env.tc = tc
		}
		buf, err := encodeEnvelope(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.B...))
		buf.Release()
	}
	f.Add([]byte{})
	f.Add([]byte{envVersion})
	f.Add([]byte{envVersion | envFlagTC, 1, 0xff, 0xff})
	f.Add([]byte{0, 1, 2, 3}) // a retired gob header
	for _, id := range wire.RetiredIDs() {
		for _, env := range retiredEnvelopes(id) {
			f.Add(env)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var env envelope
		var err error
		wiretest.AllocBound(t, raw, func() { env, err = decodeEnvelope(raw) })
		if err != nil {
			return
		}
		buf, err := encodeEnvelope(&env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		defer buf.Release()
		again, err := decodeEnvelope(buf.B)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(env, again) {
			t.Fatalf("round trip drifted:\n first: %#v\nsecond: %#v", env, again)
		}
	})
}
