package wire

import (
	"reflect"
	"testing"

	"plwg/internal/ids"
)

// TestCountChecksTheBytesThatRemain: a count is believed only if that
// many elements of the stated minimum size still fit in the input.
func TestCountChecksTheBytesThatRemain(t *testing.T) {
	cases := []struct {
		name     string
		in       []byte
		minBytes int
		want     int
		fails    bool
	}{
		{"zero", []byte{0}, 2, 0, false},
		{"fits exactly", []byte{2, 9, 9, 9, 9}, 2, 2, false},
		{"one element too many", []byte{3, 9, 9, 9, 9}, 2, 0, true},
		{"4 GiB prefix, 3 bytes left", []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}, 1, 0, true},
		{"max uint64 prefix", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1}, 1, 0, true},
		{"truncated varint", []byte{0x80}, 1, 0, true},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		if got := r.Count(c.minBytes); got != c.want || (r.Err() != nil) != c.fails {
			t.Errorf("%s: Count = %d, err %v; want %d, fails %v", c.name, got, r.Err(), c.want, c.fails)
		}
	}
}

// TestIDHelpersRoundTrip pins the shared identifier encodings, nil for
// empty included.
func TestIDHelpersRoundTrip(t *testing.T) {
	view := ids.View{ID: ids.ViewID{Coord: -1, Seq: 1 << 40}, Members: ids.Members{-1, 0, 7}}
	vids := ids.ViewIDs{{Coord: 3, Seq: 9}, {}, {Coord: 1 << 30, Seq: 1<<64 - 1}}
	var b Buffer
	b.View(view)
	b.ViewIDs(vids)
	b.View(ids.View{})
	b.ViewIDs(nil)
	b.PID(-5)
	b.HWG(1 << 50)
	r := NewReader(b.B)
	if got := r.View(); !reflect.DeepEqual(got, view) {
		t.Errorf("View: got %v, want %v", got, view)
	}
	if got := r.ViewIDs(); !reflect.DeepEqual(got, vids) {
		t.Errorf("ViewIDs: got %v, want %v", got, vids)
	}
	if got := r.View(); !got.ID.IsZero() || got.Members != nil {
		t.Errorf("empty View: got %#v", got)
	}
	if got := r.ViewIDs(); got != nil {
		t.Errorf("empty ViewIDs: got %#v", got)
	}
	if p, g := r.PID(), r.HWG(); p != -5 || g != 1<<50 {
		t.Errorf("PID, HWG: got %d, %d", p, g)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Errorf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// nestMsg carries another message, like a data message its payload.
type nestMsg struct{ Inner Marshaler }

const wireNestMsg = 253

func (m *nestMsg) WireID() byte { return wireNestMsg }
func (m *nestMsg) MarshalWire(b *Buffer) bool {
	b.Bool(m.Inner != nil)
	return m.Inner == nil || Encode(b, m.Inner)
}

func init() {
	Register(wireNestMsg, func(r *Reader) (Marshaler, error) {
		m := &nestMsg{}
		if r.Bool() {
			var err error
			if m.Inner, err = Decode(r); err != nil {
				return nil, err
			}
		}
		return m, r.Err()
	})
}

// TestDecodeBoundsNesting: messages that carry each other decode down
// to maxNesting levels and no further, however long the input.
func TestDecodeBoundsNesting(t *testing.T) {
	nested := func(levels int) []byte {
		var m Marshaler
		for i := 0; i < levels; i++ {
			m = &nestMsg{Inner: m}
		}
		var b Buffer
		if !Encode(&b, m) {
			t.Fatal("encode failed")
		}
		return b.B
	}
	if _, err := Decode(NewReader(nested(maxNesting))); err != nil {
		t.Fatalf("%d levels: %v", maxNesting, err)
	}
	for _, levels := range []int{maxNesting + 1, 10000} {
		if _, err := Decode(NewReader(nested(levels))); err == nil {
			t.Fatalf("%d levels decoded", levels)
		}
	}
	// The bound is per Decode call in progress, not per reader: two
	// sibling messages in one buffer both decode.
	two := append(nested(maxNesting), nested(maxNesting)...)
	r := NewReader(two)
	for i := 0; i < 2; i++ {
		if _, err := Decode(r); err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
	}
}
