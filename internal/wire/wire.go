// Package wire is the one wire format of the protocol stack: a compact
// hand-rolled binary codec with one identifier byte per registered type
// and varint-packed fields, whose buffers are pooled so the steady-state
// send path allocates nothing.
//
// Every message that can cross a socket implements Marshaler and
// registers a Decoder; there is no second codec to fall back to. A
// Marshaler whose nested content cannot be encoded (a data message
// carrying a payload without a codec — only test payloads are like
// that) reports false from MarshalWire, and the transport counts the
// message as a send error.
//
// Decoders read bytes straight off a UDP socket, so they treat every
// length prefix as hostile: Reader.Count checks an element count against
// the bytes that remain before anything is allocated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Marshaler is implemented by messages the codec can encode.
type Marshaler interface {
	// WireID returns the registered type identifier.
	WireID() byte
	// MarshalWire appends the message body to b. False means the
	// message cannot be sent: some nested content has no codec. The
	// caller discards the buffer contents and reports the failure.
	MarshalWire(b *Buffer) bool
}

// Decoder reconstructs one message body from r.
type Decoder func(r *Reader) (Marshaler, error)

var (
	decoders [256]Decoder
	retired  [256]bool
)

// Register installs the decoder for a type identifier. Identifier
// ranges are assigned per package (vsync 1–31, core 32–63, naming
// 64–95; 96–255 are free for tests and tools) so registrations cannot
// collide. Register panics on a duplicate or retired identifier: that
// is a programming error, not a runtime condition.
func Register(id byte, dec Decoder) {
	if id == 0 {
		panic("wire: type id 0 is reserved")
	}
	if decoders[id] != nil || retired[id] {
		panic(fmt.Sprintf("wire: duplicate or retired type id %d", id))
	}
	decoders[id] = dec
}

// Retire marks the identifier of a deleted message type. It stays
// unknown to Decode, and is never assigned again: a datagram from a
// process that still speaks the old type must not decode as a new one.
func Retire(id byte) {
	if decoders[id] != nil {
		panic(fmt.Sprintf("wire: type id %d is in use", id))
	}
	retired[id] = true
}

// RetiredIDs returns every identifier Retire has seen, ascending.
func RetiredIDs() []byte {
	var out []byte
	for id, r := range retired {
		if r {
			out = append(out, byte(id))
		}
	}
	return out
}

// RegisteredIDs returns every identifier Register has seen, ascending.
func RegisteredIDs() []byte {
	var out []byte
	for id, dec := range decoders {
		if dec != nil {
			out = append(out, byte(id))
		}
	}
	return out
}

// Encode appends the type identifier and body of m. False — with the
// buffer in an undefined state — means m cannot be sent (see
// Marshaler.MarshalWire).
func Encode(b *Buffer, m Marshaler) bool {
	b.Byte(m.WireID())
	return m.MarshalWire(b)
}

// maxNesting bounds how deep Decode may recurse through nested messages.
// The protocols nest two levels (a vsync message carrying data messages
// carrying a payload); without a bound a hostile datagram of messages
// that carry each other recurses once per dozen input bytes.
const maxNesting = 4

// Decode reads one identifier-prefixed message from r.
func Decode(r *Reader) (Marshaler, error) {
	id := r.Byte()
	if r.err != nil {
		return nil, r.err
	}
	dec := decoders[id]
	if dec == nil {
		return nil, fmt.Errorf("wire: unknown type id %d", id)
	}
	if r.depth >= maxNesting {
		return nil, fmt.Errorf("wire: messages nested deeper than %d", maxNesting)
	}
	r.depth++
	m, err := dec(r)
	r.depth--
	return m, err
}

// --- encode buffer ---------------------------------------------------------

// Buffer is an append-only encode buffer. Get it from the pool with
// GetBuffer and return it with Release, once, when nothing reads B or a
// slice of it any more. A buffer whose bytes several consumers share
// (a UDP fan-out to N peers) has one owner that releases it after the
// last of them is done.
type Buffer struct {
	B []byte
}

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. Neither the buffer nor any
// slice of B may be touched afterwards. Safe from any goroutine.
func (b *Buffer) Release() { bufPool.Put(b) }

// Byte appends one byte.
func (b *Buffer) Byte(v byte) { b.B = append(b.B, v) }

// Bool appends a boolean as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.B = append(b.B, 1)
	} else {
		b.B = append(b.B, 0)
	}
}

// Uint64 appends an unsigned varint.
func (b *Buffer) Uint64(v uint64) { b.B = binary.AppendUvarint(b.B, v) }

// Int64 appends a zig-zag signed varint.
func (b *Buffer) Int64(v int64) { b.B = binary.AppendVarint(b.B, v) }

// Bytes appends a length-prefixed byte slice.
func (b *Buffer) Bytes(p []byte) {
	b.B = binary.AppendUvarint(b.B, uint64(len(p)))
	b.B = append(b.B, p...)
}

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.B = binary.AppendUvarint(b.B, uint64(len(s)))
	b.B = append(b.B, s...)
}

// --- decode reader ---------------------------------------------------------

// ErrTruncated reports input shorter than the encoding demands.
var ErrTruncated = errors.New("wire: truncated input")

// Reader consumes an encoded byte slice. Errors are sticky: after the
// first failure every accessor returns a zero value, so a decode
// function can read all fields and check Err once.
type Reader struct {
	b     []byte
	off   int
	err   error
	depth int // Decode calls in progress
}

// NewReader wraps p for decoding. The reader aliases p; returned byte
// slices are sub-slices of it.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uint64 reads an unsigned varint.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Int64 reads a zig-zag signed varint.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte slice (aliasing the input).
func (r *Reader) Bytes() []byte {
	n := r.Uint64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads an element count and checks it against the input that
// remains: n elements of at least minBytes encoded bytes each must still
// fit, so a hostile length prefix fails the decode before it can size an
// allocation. It returns 0 once the reader has failed.
func (r *Reader) Count(minBytes int) int {
	n := r.Uint64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}
