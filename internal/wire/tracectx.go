package wire

// TraceCtx is the compact causal context carried on rtnet envelopes: who
// originated the message, at what origin-local virtual time, at what
// wall-clock instant, and which protocol operation it belongs to. The
// receiver records it into its trace ring at decode, so cross-node
// stitching works from live rings, and uses the wall clock to compute
// one-way send→deliver latency (origin VTs are per-node and not
// comparable across machines; wall clocks are, to NTP precision, which
// is what a latency SLO histogram needs).
//
// The context rides between the envelope header byte and the envelope
// body, announced by a flag bit of the header (rtnet's envFlagTC).
type TraceCtx struct {
	// Origin is the sending process id.
	Origin int64
	// VT is the sender's driver-local virtual time in nanoseconds.
	VT int64
	// Wall is the sender's wall clock (UnixNano) at send.
	Wall int64
	// Sampled marks a context chosen by the sampling knob; unsampled
	// envelopes carry no context at all, so a decoded context is always
	// live — the bit survives re-export so downstream consumers can
	// scale counts back up.
	Sampled bool
	// Ref names the destination endpoint (the envelope address, e.g.
	// "hwg/3"), tying the context to a protocol operation.
	Ref string
}

// traceCtxVersion versions the context layout; unknown versions fail the
// decode (the envelope then falls back to being treated as malformed
// rather than mis-parsed).
const traceCtxVersion = 1

// MarshalWire appends the context to the buffer.
func (tc *TraceCtx) MarshalWire(b *Buffer) {
	b.Byte(traceCtxVersion)
	b.Int64(tc.Origin)
	b.Int64(tc.VT)
	b.Int64(tc.Wall)
	b.Bool(tc.Sampled)
	b.String(tc.Ref)
}

// UnmarshalWire reads a context; it reports false on a version it does
// not understand or a truncated encoding (r.Err() is then also set for
// the truncated case).
func (tc *TraceCtx) UnmarshalWire(r *Reader) bool {
	if r.Byte() != traceCtxVersion {
		return false
	}
	tc.Origin = r.Int64()
	tc.VT = r.Int64()
	tc.Wall = r.Int64()
	tc.Sampled = r.Bool()
	tc.Ref = r.String()
	return r.Err() == nil
}
