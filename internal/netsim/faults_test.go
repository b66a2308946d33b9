package netsim

import (
	"reflect"
	"testing"
	"time"

	"plwg/internal/faults"
	"plwg/internal/sim"
)

// withFaults builds the four-node test network with every node subscribed
// to "g" and the given spec text installed.
func withFaults(t *testing.T, spec string) (*sim.Sim, *Network, map[NodeID]*recorder) {
	t.Helper()
	s, nw, recs := testNet(t)
	fs, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(fs)
	for id := range recs {
		nw.Subscribe(id, "g")
	}
	return s, nw, recs
}

// TestNilFaultsDrawNothing pins the oracle that keeps every virtual record
// byte-identical: a nil spec (or one of clean rules) leaves the delivery
// log as on a network that never heard of faults, and the engine's random
// stream untouched — its next draw is a fresh engine's first.
func TestNilFaultsDrawNothing(t *testing.T) {
	run := func(install func(*Network)) (map[NodeID][]rx, int64) {
		s, nw, recs := testNet(t)
		install(nw)
		for id := range recs {
			nw.Subscribe(id, "g")
		}
		for i := 0; i < 20; i++ {
			nw.Multicast(NodeID(i%4), "g", RawMessage{Bytes: 100 + i})
			nw.Unicast(NodeID(i%4), NodeID((i+1)%4), "ep", RawMessage{Bytes: 10})
		}
		s.Run()
		log := make(map[NodeID][]rx)
		for id, r := range recs {
			log[id] = r.msgs
		}
		return log, s.Rand().Int63()
	}
	wantLog, _ := run(func(*Network) {})
	wantNext := sim.New(7).Rand().Int63()
	for name, install := range map[string]func(*Network){
		"unset": func(*Network) {},
		"nil":   func(nw *Network) { nw.SetFaults(nil) },
		"clean": func(nw *Network) { nw.SetFaults(&faults.Spec{Default: &faults.Rule{}}) },
	} {
		log, next := run(install)
		if !reflect.DeepEqual(log, wantLog) {
			t.Errorf("%s spec changed the delivery log", name)
		}
		if next != wantNext {
			t.Errorf("%s spec drew from the engine's random source", name)
		}
	}
}

func TestLossNeverDropsSelfDelivery(t *testing.T) {
	s, nw, recs := withFaults(t, "loss=1")
	for id := NodeID(0); id < 4; id++ {
		nw.Multicast(id, "g", RawMessage{Bytes: 50})
	}
	nw.Unicast(1, 1, "ep", RawMessage{Bytes: 10})
	s.Run()
	for id, r := range recs {
		want := 1
		if id == 1 {
			want = 2 // its multicast and its unicast to itself
		}
		if len(r.msgs) != want {
			t.Fatalf("node %v got %d deliveries, want only its own %d", id, len(r.msgs), want)
		}
		for _, m := range r.msgs {
			if m.from != id {
				t.Fatalf("node %v received a frame from %v through loss=1", id, m.from)
			}
		}
	}
	if d := nw.Stats().Dropped; d != 12 {
		t.Fatalf("dropped %d deliveries, want 12 (3 receivers x 4 senders)", d)
	}
}

func TestDupDeliversNonSelfFramesTwice(t *testing.T) {
	s, nw, recs := withFaults(t, "dup=1")
	nw.Multicast(0, "g", RawMessage{Bytes: 50})
	s.Run()
	for id, r := range recs {
		want := 2
		if id == 0 {
			want = 1
		}
		if len(r.msgs) != want {
			t.Fatalf("node %v got %d copies, want %d", id, len(r.msgs), want)
		}
	}
}

// TestOneWayBlock: a link rule cuts only the frames to its peer — the
// asymmetric partition the symmetric SetPartitions cannot express.
func TestOneWayBlock(t *testing.T) {
	s, nw, recs := withFaults(t, "3:block")
	nw.Multicast(0, "g", RawMessage{Bytes: 50})
	nw.Multicast(3, "g", RawMessage{Bytes: 50})
	s.Run()
	for id, r := range recs {
		from := map[NodeID]int{}
		for _, m := range r.msgs {
			from[m.from]++
		}
		if id == 3 {
			if from[0] != 0 || from[3] != 1 {
				t.Fatalf("blocked node 3 received %v, want only its own frame", from)
			}
			continue
		}
		if from[0] != 1 || from[3] != 1 {
			t.Fatalf("node %v received %v, want one frame from 0 and one from 3", id, from)
		}
	}
}

// TestDelayWindow: delay=1ms..2ms puts every non-self arrival within
// [PropDelay+1ms, PropDelay+2ms) of the frame's bus end. Receive CPU is
// zeroed so delivery time is arrival time.
func TestDelayWindow(t *testing.T) {
	s := sim.New(3)
	p := DefaultParams()
	p.CPUPerMsg, p.CPUPerKB = 0, 0
	nw := New(s, p)
	fs, err := faults.Parse("delay=1ms..2ms")
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(fs)
	r := &recorder{s: s}
	nw.AddNode(0, nil)
	nw.AddNode(1, r.handler())
	const bytes = 100
	tx := time.Duration(float64((bytes+p.FrameOverheadBytes)*8) / p.BandwidthBps * float64(time.Second))
	for i := 0; i < 200; i++ {
		busEnd := s.Now().Add(tx)
		nw.Unicast(0, 1, "ep", RawMessage{Bytes: bytes})
		s.Run()
		got := r.msgs[len(r.msgs)-1].at.Sub(busEnd)
		if got < p.PropDelay+time.Millisecond || got >= p.PropDelay+2*time.Millisecond {
			t.Fatalf("frame %d arrived %v after its bus end, want [%v, %v)",
				i, got, p.PropDelay+time.Millisecond, p.PropDelay+2*time.Millisecond)
		}
	}
}
