// Package wiretest is the test kit of the wire codecs. The message types
// are unexported and live in three packages, so one hand-written table
// cannot name them all; instead the kit discovers every type through
// the registry (wire.RegisteredIDs) and fills samples in by reflection.
// A type registered tomorrow is covered with no edit here.
//
// It is imported by tests only.
package wiretest

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"plwg/internal/wire"
)

// Sample is one generated message of a registered type.
type Sample struct {
	ID      byte
	Variant string // one of Variants
	Msg     wire.Marshaler
}

// Name renders the sample as "<id> <go type> <variant>".
func (s Sample) Name() string { return fmt.Sprintf("%d %T %s", s.ID, s.Msg, s.Variant) }

// Variants are the shapes generated per type: every field zero; every
// field set, two elements per collection; extreme field values and
// forty elements per collection.
var Variants = []string{"zero", "populated", "large"}

// Prototypes maps every registered identifier to a zero message of its
// type. Decoding an all-zero body yields one: every count is 0, every
// flag false, every optional part absent.
func Prototypes(tb testing.TB) map[byte]wire.Marshaler {
	tb.Helper()
	out := make(map[byte]wire.Marshaler)
	for _, id := range wire.RegisteredIDs() {
		body := make([]byte, 64)
		body[0] = id
		m, err := wire.Decode(wire.NewReader(body))
		if err != nil {
			tb.Fatalf("wire id %d: all-zero body does not decode: %v", id, err)
		}
		if m.WireID() != id {
			tb.Fatalf("wire id %d decodes to %T, whose WireID is %d", id, m, m.WireID())
		}
		if t := reflect.TypeOf(m); t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
			tb.Fatalf("wire id %d decodes to %T; want a pointer to a struct", id, m)
		}
		out[id] = m
	}
	return out
}

// Samples generates the three Variants of every registered type, in
// identifier order. The result is a pure function of the registry.
func Samples(tb testing.TB) []Sample {
	tb.Helper()
	protos := Prototypes(tb)
	g := &gen{}
	for _, id := range wire.RegisteredIDs() {
		g.types = append(g.types, reflect.TypeOf(protos[id]))
	}
	var out []Sample
	for _, id := range wire.RegisteredIDs() {
		t := reflect.TypeOf(protos[id]).Elem()
		for _, variant := range Variants {
			v := reflect.New(t)
			g.n, g.large = 0, variant == "large"
			if variant != "zero" {
				g.fill(v.Elem(), 0)
			}
			out = append(out, Sample{ID: id, Variant: variant, Msg: v.Interface().(wire.Marshaler)})
		}
	}
	return out
}

// gen fills values in deterministically.
type gen struct {
	types []reflect.Type // registered message types, identifier order
	large bool
	n     int64        // value counter
	pick  [maxHops]int // per nesting level: next candidate for an interface field
}

// maxHops bounds how many interface fields deep a sample nests: the
// protocols nest one (a message carrying data messages carrying a
// payload), the generator goes one further, wire.Decode allows both.
const maxHops = 2

func (g *gen) elems(hops int) int {
	if g.large && hops == 0 {
		return 40
	}
	return 2
}

func (g *gen) fill(v reflect.Value, hops int) {
	g.n++
	big := g.large && hops == 0
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := g.n*7%100 - 20
		if big {
			x = math.MaxInt64 >> (64 - v.Type().Bits())
			if g.n%2 == 0 {
				x = -x - 1
			}
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := uint64(g.n * 7 % 100)
		if big {
			x = math.MaxUint64 >> (64 - v.Type().Bits())
		}
		v.SetUint(x)
	case reflect.String:
		s := fmt.Sprintf("s%d", g.n)
		if big {
			s = strings.Repeat(s, 100)
		}
		v.SetString(s)
	case reflect.Slice:
		n := g.elems(hops)
		if v.Type().Elem().Kind() == reflect.Uint8 && big {
			n = 2000
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			g.fill(s.Index(i), hops)
		}
		v.Set(s)
	case reflect.Map:
		n := g.elems(hops)
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			g.fill(e, hops)
			k.SetInt(int64(i) - 1) // every map on the wire is keyed by process id
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				g.fill(f, hops)
			}
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		g.fill(v.Elem(), hops)
	case reflect.Interface:
		if hops == maxHops {
			return // leave nil: the nesting stops here
		}
		// Rotate through every registered type that fits the field, so
		// a collection of forty carries every possible payload.
		for range g.types {
			t := g.types[g.pick[hops]%len(g.types)]
			g.pick[hops]++
			if t.Implements(v.Type()) {
				p := reflect.New(t.Elem())
				g.fill(p.Elem(), hops+1)
				v.Set(p)
				return
			}
		}
	default:
		panic(fmt.Sprintf("wiretest: cannot fill a %v", v.Type()))
	}
}

// Reachable lists the Go type ("%T") of every message reachable from m
// through pointers, slices and interface fields, m included.
func Reachable(m any) []string {
	var out []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr, reflect.Interface:
			if v.IsNil() {
				return
			}
			if v.Kind() == reflect.Ptr && v.Elem().Kind() == reflect.Struct {
				out = append(out, v.Type().String())
			}
			walk(v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(m))
	return out
}

// Encode renders m with its identifier byte.
func Encode(tb testing.TB, m wire.Marshaler) []byte {
	tb.Helper()
	var b wire.Buffer
	if !wire.Encode(&b, m) {
		tb.Fatalf("%T did not encode", m)
	}
	return b.B
}

// RoundTrip checks encode → decode → reflect.DeepEqual, and that the
// decoder consumed exactly what the encoder wrote.
func RoundTrip(tb testing.TB, m wire.Marshaler) {
	tb.Helper()
	r := wire.NewReader(Encode(tb, m))
	got, err := wire.Decode(r)
	if err != nil {
		tb.Fatalf("%T: decode: %v", m, err)
	}
	if r.Len() != 0 {
		tb.Fatalf("%T: decoder left %d bytes unread", m, r.Len())
	}
	if !reflect.DeepEqual(m, got) {
		tb.Fatalf("%T: round trip drifted:\n sent %#v\n got  %#v", m, m, got)
	}
}

// AllocBound runs decode over a len(raw)-byte input and fails if it
// allocated more than 64× the input (plus 1 KiB for the message struct
// and an error value): whatever a length prefix claims, a decoder sizes
// nothing before checking the claim against the bytes that remain.
// Allocation by unrelated goroutines is the only noise, so a breach
// must repeat three times to count.
func AllocBound(tb testing.TB, raw []byte, decode func()) {
	tb.Helper()
	limit := uint64(64*len(raw) + 1024)
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	tb.Fatalf("decoding %d bytes allocated %d, above the %d allowed", len(raw), got, limit)
}

// FuzzCodec is the fuzz target of a codec package: seeded with every
// sample of the types the test binary registers, it feeds arbitrary
// bytes to wire.Decode. A decoder must not panic, must stay inside
// AllocBound, and anything it accepts must re-encode and decode back to
// the same message, so a corrupt datagram cannot become protocol state
// that the sender could not have meant. Retired identifiers stay in the
// seed corpus — bare, and in front of live bodies — and never decode.
func FuzzCodec(f *testing.F) {
	samples := Samples(f)
	for _, s := range samples {
		f.Add(Encode(f, s.Msg))
	}
	for _, id := range append(wire.RegisteredIDs(), wire.RetiredIDs()...) {
		f.Add([]byte{id})
		f.Add([]byte{id, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}) // a 4 GiB length prefix
	}
	retired := make(map[byte]bool)
	for _, id := range wire.RetiredIDs() {
		retired[id] = true
		for _, s := range samples[:len(Variants)] {
			f.Add(append([]byte{id}, Encode(f, s.Msg)[1:]...))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m wire.Marshaler
		var err error
		AllocBound(t, raw, func() { m, err = wire.Decode(wire.NewReader(raw)) })
		if err != nil {
			return
		}
		if retired[raw[0]] {
			t.Fatalf("retired wire id %d decoded to %T", raw[0], m)
		}
		RoundTrip(t, m)
	})
}
