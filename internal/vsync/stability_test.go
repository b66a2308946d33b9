package vsync

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
)

// lone builds one member, process 0, installed in a view of the given
// members that no other process runs: the test plays the peers by
// calling the member's handlers directly, and never runs the clock.
func lone(t *testing.T, members ...ids.ProcessID) (*member, *tUp) {
	t.Helper()
	w := newWorld(t, 1)
	if err := w.stacks[0].Create(g1); err != nil {
		t.Fatal(err)
	}
	m := w.stacks[0].groups[g1]
	m.install(ids.View{ID: ids.ViewID{Coord: 0, Seq: 10}, Members: ids.NewMembers(members...)})
	return m, w.ups[0]
}

// appData counts u's Data upcalls of gid per payload ID.
func appData(u *tUp, gid ids.HWGID) map[string]int {
	per := make(map[string]int)
	for _, e := range u.log[gid] {
		if e.kind == "data" {
			per[e.pay]++
		}
	}
	return per
}

func keyID(k msgKey) string { return fmt.Sprintf("%v/%d", k.Sender, k.Seq) }

// oldRule is the stability rule the watermarks replaced, kept as the
// oracle: a delivered set, and a rescan of the whole buffer after every
// acknowledgement vector from anybody.
type oldRule struct {
	self       ids.ProcessID
	members    ids.Members
	delivered  map[msgKey]bool
	buffer     map[msgKey]bool
	ackVectors map[ids.ProcessID]map[ids.ProcessID]uint64
}

func (o *oldRule) stable(k msgKey) bool {
	for _, p := range o.members {
		if p == o.self || p == k.Sender {
			continue
		}
		if o.ackVectors[p][k.Sender] < k.Seq {
			return false
		}
	}
	return true
}

func (o *oldRule) deliver(k msgKey) {
	if o.delivered[k] {
		return
	}
	o.delivered[k] = true
	if !o.stable(k) {
		o.buffer[k] = true
	}
}

func (o *oldRule) ack(from ids.ProcessID, vec map[ids.ProcessID]uint64) {
	v := o.ackVectors[from]
	if v == nil {
		v = make(map[ids.ProcessID]uint64)
		o.ackVectors[from] = v
	}
	for s, q := range vec {
		if v[s] < q {
			v[s] = q
		}
	}
	for k := range o.buffer {
		if o.stable(k) {
			delete(o.buffer, k)
		}
	}
}

// TestWatermarkStabilityMatchesRescan drives one member through random
// deliveries (in order, reordered, NACK retransmissions, flush fills,
// duplicates) and heartbeats, with vectors carried by data and beats, and
// checks after every step that its buffer, its delivered set and the
// app's deliveries are exactly what the rescanning rule gives.
func TestWatermarkStabilityMatchesRescan(t *testing.T) {
	members := []ids.ProcessID{0, 1, 2, 3}
	// Sender 5 is outside the view: a hostile or stale frame that still
	// carries the view's tag. Process 9 sends vectors but is no member.
	senders := []ids.ProcessID{0, 1, 2, 3, 5}
	ackers := []ids.ProcessID{0, 1, 2, 3, 9}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, up := lone(t, members...)
		views := len(up.log[g1]) // no upcall but Data follows
		o := &oldRule{
			self: 0, members: m.view.Members,
			delivered:  make(map[msgKey]bool),
			buffer:     make(map[msgKey]bool),
			ackVectors: make(map[ids.ProcessID]map[ids.ProcessID]uint64),
		}
		produced := make(map[ids.ProcessID]uint64)
		msg := func(s ids.ProcessID, q uint64) *msgData {
			k := msgKey{View: m.view.ID, Sender: s, Seq: q}
			return &msgData{GID: g1, View: k.View, Sender: s, Seq: q, Payload: tPayload{ID: keyID(k)}}
		}
		// vector acknowledges, per sender, anything up to what it produced.
		vector := func() map[ids.ProcessID]uint64 {
			vec := make(map[ids.ProcessID]uint64)
			for _, s := range senders {
				if rng.Intn(3) > 0 {
					vec[s] = uint64(rng.Int63n(int64(produced[s]) + 1))
				}
			}
			return vec
		}
		// pick returns a produced message of a random sender, biased
		// towards the sender's next one in order.
		pick := func() (ids.ProcessID, uint64, bool) {
			s := senders[rng.Intn(len(senders))]
			if produced[s] == 0 {
				return 0, 0, false
			}
			q := m.deliveredSeq[s] + 1
			if q > produced[s] || rng.Intn(3) == 0 {
				q = 1 + uint64(rng.Int63n(int64(produced[s])))
			}
			return s, q, true
		}
		for step := 0; step < 400; step++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 2:
				s := senders[rng.Intn(len(senders))]
				produced[s] += 1 + uint64(rng.Intn(3))
				what = "produce"
			case r < 5:
				s, q, ok := pick()
				if !ok {
					continue
				}
				d := msg(s, q)
				if rng.Intn(2) == 0 {
					d.Acks = vector()
				}
				what = fmt.Sprintf("data %v/%d acks=%v", s, q, d.Acks)
				o.deliver(d.key())
				if len(d.Acks) > 0 {
					o.ack(s, d.Acks)
				}
				m.onData(s, d)
			case r < 6:
				var ds []*msgData
				for i := rng.Intn(4); i >= 0; i-- {
					if s, q, ok := pick(); ok {
						ds = append(ds, msg(s, q))
					}
				}
				what = fmt.Sprintf("retrans %d msgs", len(ds))
				for _, d := range ds {
					o.deliver(d.key())
				}
				m.onRetrans(members[1+rng.Intn(3)], &msgRetrans{GID: g1, Msgs: ds})
			case r < 7:
				s, q, ok := pick()
				if !ok {
					continue
				}
				what = fmt.Sprintf("flush fill %v/%d", s, q)
				d := msg(s, q)
				o.deliver(d.key())
				m.deliverData(d) // how onNewView closes the old view
			default:
				from := ackers[rng.Intn(len(ackers))]
				hb := &msgHeartbeat{GID: g1, From: from, View: m.view.ID, MaxSeq: produced[from]}
				if rng.Intn(2) == 0 {
					hb.Acks = vector()
				}
				what = fmt.Sprintf("heartbeat %v acks=%v", from, hb.Acks)
				o.ack(from, hb.Acks)
				m.onHeartbeat(from, hb)
			}
			if len(m.buffer) != len(o.buffer) {
				t.Fatalf("seed %d step %d (%s): buffer holds %d, rescan holds %d",
					seed, step, what, len(m.buffer), len(o.buffer))
			}
			for k := range o.buffer {
				if m.buffer[k] == nil {
					t.Fatalf("seed %d step %d (%s): %v collected early", seed, step, what, k)
				}
			}
			for k := range o.delivered {
				if o.buffer[k] == o.stable(k) {
					t.Fatalf("seed %d step %d (%s): oracle buffer wrong at %v", seed, step, what, k)
				}
			}
			if n := len(up.log[g1]) - views; n != len(o.delivered) {
				t.Fatalf("seed %d step %d (%s): app got %d deliveries, want %d",
					seed, step, what, n, len(o.delivered))
			}
			for _, s := range senders {
				for q := uint64(1); q <= produced[s]+1; q++ {
					k := msgKey{View: m.view.ID, Sender: s, Seq: q}
					if m.isDelivered(k) != o.delivered[k] {
						t.Fatalf("seed %d step %d (%s): isDelivered(%v) = %v",
							seed, step, what, k, m.isDelivered(k))
					}
				}
			}
		}
		per := appData(up, g1)
		for k := range o.delivered {
			if n := per[keyID(k)]; n != 1 {
				t.Fatalf("seed %d: %v reached the app %d times", seed, k, n)
			}
		}
	}
}

// TestWatermarkHostileVectors: a vector entry of 2^64-1 returns at once
// and collects only what was seen, a vector from a non-member collects
// nothing, and a frame numbered 0 never reaches the app.
func TestWatermarkHostileVectors(t *testing.T) {
	m, up := lone(t, 0, 1, 2, 3)
	for q := uint64(1); q <= 5; q++ {
		m.onData(1, &msgData{GID: g1, View: m.view.ID, Sender: 1, Seq: q, Payload: tPayload{ID: "x"}})
	}
	if len(m.buffer) != 5 {
		t.Fatalf("buffer = %d, want 5", len(m.buffer))
	}

	m.onHeartbeat(9, &msgHeartbeat{GID: g1, From: 9, View: m.view.ID, Acks: map[ids.ProcessID]uint64{1: 5}})
	if len(m.buffer) != 5 || m.ackVectors[9] != nil {
		t.Fatalf("non-member vector collected: buffer = %d, vectors = %v", len(m.buffer), m.ackVectors)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range []ids.ProcessID{2, 3} {
			m.onHeartbeat(p, &msgHeartbeat{GID: g1, From: p, View: m.view.ID,
				Acks: map[ids.ProcessID]uint64{1: math.MaxUint64}})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a 2^64-1 vector entry did not return")
	}
	if len(m.buffer) != 0 || m.stableSeq[1] != 5 {
		t.Fatalf("buffer = %d stableSeq = %d, want 0 and maxSeen 5", len(m.buffer), m.stableSeq[1])
	}

	m.onData(1, &msgData{GID: g1, View: m.view.ID, Sender: 1, Seq: 0, Payload: tPayload{ID: "zero"}})
	if per := appData(up, g1); per["zero"] != 0 || len(m.buffer) != 0 {
		t.Fatalf("frame 0 delivered %d times, buffer = %d", per["zero"], len(m.buffer))
	}
}

// receiveOnly builds three stacks in one group on a network that costs
// nothing, the shape whose cost is vsync's own: process 0 sends, 1 and 2
// only acknowledge.
func receiveOnly(tb testing.TB) *world {
	tb.Helper()
	w := netWorld(tb, 3, netsim.Params{BandwidthBps: 1e18}, 1)
	if err := w.stacks[0].Create(g1); err != nil {
		tb.Fatal(err)
	}
	for _, p := range []ids.ProcessID{1, 2} {
		if err := w.stacks[p].Join(g1); err != nil {
			tb.Fatal(err)
		}
	}
	w.run(3 * time.Second)
	w.requireSameView(g1, 0, 1, 2)
	return w
}

// sendGap is the virtual time between process 0's sends.
const sendGap = 100 * time.Microsecond

// TestStabilityStateBounded: with receive-only members, whose vectors
// ride their heartbeats, a long view keeps at most one HeartbeatInterval
// of traffic buffered, and no per-member map grows with the number of
// messages.
func TestStabilityStateBounded(t *testing.T) {
	w := receiveOnly(t)
	view := w.view(0, g1)
	const msgs = 20000
	maxBuf := 0
	for i := 0; i < msgs; i++ {
		if err := w.stacks[0].Send(g1, tPayload{Size: 1024}); err != nil {
			t.Fatal(err)
		}
		w.run(sendGap)
		for _, st := range w.stacks {
			maxBuf = max(maxBuf, len(st.groups[g1].buffer))
		}
	}
	if limit := int(HeartbeatInterval/sendGap) + 1; maxBuf > limit {
		t.Errorf("buffer peaked at %d messages, want at most %d", maxBuf, limit)
	}
	for pid, st := range w.stacks {
		m := st.groups[g1]
		if m.view.ID != view.ID {
			t.Fatalf("%v left view %v", pid, view.ID)
		}
		if n := appData(w.ups[pid], g1)[""]; n != msgs { // no payload has an ID
			t.Errorf("%v delivered %d of %d", pid, n, msgs)
		}
		if len(m.extras) != 0 || len(m.prevGaps) != 0 {
			t.Errorf("%v: extras = %d, gaps = %d", pid, len(m.extras), len(m.prevGaps))
		}
		sizes := map[string]int{
			"deliveredSeq": len(m.deliveredSeq), "maxSeen": len(m.maxSeen),
			"stableSeq": len(m.stableSeq), "ackVectors": len(m.ackVectors),
			"lastHeard": len(m.lastHeard), "fdStrikes": len(m.fdStrikes),
			"suspects": len(m.suspects),
		}
		for p, vec := range m.ackVectors {
			sizes[fmt.Sprintf("ackVectors[%v]", p)] = len(vec)
		}
		for name, n := range sizes {
			if n > len(view.Members) {
				t.Errorf("%v: %s has %d entries in a view of %d", pid, name, n, len(view.Members))
			}
		}
	}
}

// BenchmarkStabilityReceiveOnly reports the wall time per message of
// the receive-only shape: one sender, two acknowledging receivers.
func BenchmarkStabilityReceiveOnly(b *testing.B) {
	w := receiveOnly(b)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		if err := w.stacks[0].Send(g1, tPayload{Size: 1024}); err != nil {
			b.Fatal(err)
		}
		w.run(sendGap)
	}
	b.ReportMetric(float64(time.Since(t0).Microseconds())/float64(b.N), "us/msg")
}
