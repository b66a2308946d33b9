package rtnet

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/wire"
)

// fragTestMsg is a codec-capable message used to exercise the envelope
// codec against the fragmentation layer without reaching into other
// packages' unexported types.
type fragTestMsg struct{ Data []byte }

func (m *fragTestMsg) WireSize() int                   { return len(m.Data) }
func (m *fragTestMsg) WireID() byte                    { return 255 }
func (m *fragTestMsg) MarshalWire(b *wire.Buffer) bool { b.Bytes(m.Data); return true }

var fragTestRegOnce sync.Once

func registerFragTestMsg() {
	fragTestRegOnce.Do(func() {
		wire.Register(255, func(r *wire.Reader) (wire.Marshaler, error) {
			m := &fragTestMsg{Data: append([]byte(nil), r.Bytes()...)}
			if err := r.Err(); err != nil {
				return nil, err
			}
			return m, nil
		})
	})
}

// TestEnvelopeCodecSurvivesFragmentation pushes a codec-encoded envelope
// bigger than one fragment through encode → fragment → reassemble →
// decode and checks it comes back intact.
func TestEnvelopeCodecSurvivesFragmentation(t *testing.T) {
	registerFragTestMsg()
	payload := make([]byte, 3*fragPayload/2) // guaranteed to span fragments
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	env := &envelope{From: 7, Msg: &fragTestMsg{Data: payload}}
	buf, err := encodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if buf.B[0] != envVersion {
		t.Fatalf("header = %#02x, want the bare version byte %#02x", buf.B[0], envVersion)
	}
	chunks := fragment(42, buf.B)
	buf.Release()
	if len(chunks) < 2 {
		t.Fatalf("payload did not fragment: %d chunk(s)", len(chunks))
	}
	r := newReassembler()
	var whole []byte
	for _, c := range chunks {
		got, err := r.add(fragAddr(1), c)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			if whole != nil {
				t.Fatal("reassembler produced two messages")
			}
			whole = got
		}
	}
	if whole == nil {
		t.Fatal("reassembly incomplete after all fragments")
	}
	dec, err := decodeEnvelope(whole)
	if err != nil {
		t.Fatal(err)
	}
	if dec.From != env.From || dec.Uni != env.Uni {
		t.Fatalf("envelope header mismatch: %+v vs %+v", dec, env)
	}
	m, ok := dec.Msg.(*fragTestMsg)
	if !ok {
		t.Fatalf("decoded %T, want *fragTestMsg", dec.Msg)
	}
	if !bytes.Equal(m.Data, payload) {
		t.Fatal("payload corrupted across fragmentation")
	}
}

// TestUDPBatchCrossesFragmentation packs several LWG sends into one
// batch whose wire size exceeds the UDP fragmentation threshold and
// checks every payload arrives intact and in FIFO order over real
// sockets.
func TestUDPBatchCrossesFragmentation(t *testing.T) {
	reg := metrics.NewRegistry() // the sender's: counts its batch flushes
	nodes := make([]*Node, 2)
	cols := make([]*collector, 2)
	for i := 0; i < 2; i++ {
		cols[i] = &collector{}
		cfg := NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: []ids.ProcessID{0},
			Upcalls:     cols[i],
			Seed:        int64(i + 1),
		}
		if i == 0 {
			cfg.Metrics = reg
		}
		node, err := Listen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	peers := map[ids.ProcessID]string{}
	for i, node := range nodes {
		peers[ids.ProcessID(i)] = node.Addr().String()
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})

	for i := 0; i < 2; i++ {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("big") })
	}
	eventually(t, 15*time.Second, func() bool {
		v, ok := cols[1].lastView()
		return ok && v.Members.Equal(ids.NewMembers(0, 1))
	}, "membership did not converge")

	// Six sends in one driver turn: five of ~1 KiB stay under the 8 KiB
	// size flush and park in the batch, and a ~40 KiB sixth pushes it
	// over, so all six leave in one size-flushed batch that must cross
	// the 32 KiB fragment boundary.
	const n = 6
	var want []string
	for i := 0; i < n; i++ {
		size := 1024
		if i == n-1 {
			size = 40 * 1024
		}
		want = append(want, fmt.Sprintf("%d|%s", i, strings.Repeat(string(rune('a'+i)), size)))
	}
	flushes := reg.Counter("lwg_batch_flushes_total")
	msgs := reg.Counter("lwg_batched_msgs_total")
	batched := reg.Counter("lwg_batched_bytes_total")
	flushes0, msgs0, batched0 := flushes.Value(), msgs.Value(), batched.Value()
	nodes[0].Do(func(ep *core.Endpoint) {
		for _, msg := range want {
			if err := ep.Send("big", []byte(msg)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	eventually(t, 15*time.Second, func() bool {
		return len(cols[1].dataCopy()) >= n
	}, "batched payloads not delivered")

	got := cols[1].dataCopy()
	if len(got) != n {
		t.Fatalf("receiver delivered %d messages, want %d", len(got), n)
	}
	if f, m, b := flushes.Value()-flushes0, msgs.Value()-msgs0, batched.Value()-batched0; f != 1 || m != n || b <= fragPayload {
		t.Fatalf("sender flushed %d batches of %d messages, %d B in all; want 1 batch of %d messages, over %d B",
			f, m, b, n, fragPayload)
	}
	for i, msg := range want {
		if got[i] != "p0:"+msg {
			gi, wi := got[i], "p0:"+msg
			if len(gi) > 40 {
				gi = gi[:40] + "..."
			}
			if len(wi) > 40 {
				wi = wi[:40] + "..."
			}
			t.Fatalf("message %d corrupted or reordered: got %q, want %q", i, gi, wi)
		}
	}
}
