package netsim

import (
	"testing"

	"plwg/internal/sim"
)

func TestMuxDispatchByPrefix(t *testing.T) {
	s := sim.New(1)
	nw := New(s, DefaultParams())
	mux := NewMux()
	var hwgGot, nsGot []Addr
	mux.Handle("hwg", func(_ NodeID, addr Addr, _ Message) { hwgGot = append(hwgGot, addr) })
	mux.Handle("ns", func(_ NodeID, addr Addr, _ Message) { nsGot = append(nsGot, addr) })
	nw.AddNode(0, nil)
	nw.AddNode(1, mux.Handler())
	nw.Subscribe(1, "hwg/17")
	nw.Subscribe(1, "ns")
	nw.Subscribe(1, "other/1")

	nw.Multicast(0, "hwg/17", RawMessage{Bytes: 10})
	nw.Multicast(0, "ns", RawMessage{Bytes: 10})
	nw.Multicast(0, "other/1", RawMessage{Bytes: 10}) // no handler: dropped
	nw.Unicast(0, 1, "ns", RawMessage{Bytes: 10})
	s.Run()

	if len(hwgGot) != 1 || hwgGot[0] != "hwg/17" {
		t.Errorf("hwg handler got %v", hwgGot)
	}
	if len(nsGot) != 2 {
		t.Errorf("ns handler got %v", nsGot)
	}
}

func TestMuxExactPrefixBoundaries(t *testing.T) {
	s := sim.New(1)
	nw := New(s, DefaultParams())
	mux := NewMux()
	var got int
	mux.Handle("hwg", func(NodeID, Addr, Message) { got++ })
	nw.AddNode(0, nil)
	nw.AddNode(1, mux.Handler())
	// "hwgx" must NOT match the "hwg" prefix (no separator).
	nw.Subscribe(1, "hwgx")
	nw.Multicast(0, "hwgx", RawMessage{Bytes: 1})
	s.Run()
	if got != 0 {
		t.Error(`address "hwgx" must not dispatch to prefix "hwg"`)
	}
}

// TestMuxEdgeCases drives the mux handler directly (no network) through
// the address-shape corner cases.
func TestMuxEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		addr Addr
		want string // handler that must fire; "" means dropped
	}{
		{"bare prefix", "hwg", "hwg"},
		{"prefix with rest", "hwg/17", "hwg"},
		{"rest with nested separators", "ns/a/b", "ns"},
		{"longer address is not a prefix match", "hwgx", ""},
		{"empty address", "", ""},
		{"unregistered prefix", "other/1", ""},
		{"bare separator", "/", ""},
		{"empty prefix with rest", "/17", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := NewMux()
			got := ""
			mux.Handle("hwg", func(NodeID, Addr, Message) { got = "hwg" })
			mux.Handle("ns", func(NodeID, Addr, Message) { got = "ns" })
			mux.Handler()(0, tc.addr, RawMessage{Bytes: 1})
			if got != tc.want {
				t.Errorf("addr %q dispatched to %q, want %q", tc.addr, got, tc.want)
			}
		})
	}
}
