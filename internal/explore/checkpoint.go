package explore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Checkpoint is a resumable sweep: the visited-state set, the memoised
// probe trajectories and the unexplored frontier. It lets CI split one
// scope across bounded slices (run with -budget, save, resume) without
// re-walking visited states.
//
// The v2 text format compresses the two heavy sections. Digest sets are
// sorted, delta-encoded as uvarints (neighbouring digests share no
// structure, but deltas of a sorted 64-bit set are ~8× smaller than the
// raw values), then flate-compressed and base64-armoured. The frontier —
// whose op lists used to dominate checkpoint size, since a BFS frontier
// at depth d holds O(branching^d) prefixes of d ops each — is rendered
// as op text lines and flate-compressed, which squeezes the heavily
// repeated prefixes out. It is the only format ParseCheckpoint reads.
type Checkpoint struct {
	Scope Scope
	Depth int
	// POR and ProbeMemo record the pruning flags the sweep ran with. They
	// are part of the sweep's identity: the visited set of a POR sweep
	// does not cover the orderings POR skipped, so resuming it with
	// different flags would silently corrupt the sweep.
	POR       bool
	ProbeMemo bool
	Visited   []uint64
	// Memo is the probe-trajectory memo set (ProbeMemo sweeps only).
	Memo     []uint64
	Frontier [][]Op
	// Sleep holds each frontier entry's POR sleep set (por.go), parallel
	// to Frontier. Nil unless the sweep ran with POR and the frontier is
	// non-empty.
	Sleep [][]Op
	Stats EnumStats
}

// EncodeCheckpoint renders the checkpoint in the v2 text format read by
// ParseCheckpoint.
func EncodeCheckpoint(cp *Checkpoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "enumcheckpoint v2\n")
	fmt.Fprintf(&b, "scope %s\n", cp.Scope)
	// Timing is part of scope identity: resuming with different delays
	// would explore a different schedule space against the same visited
	// set, silently corrupting the sweep.
	fmt.Fprintf(&b, "timing %s %s %s\n", cp.Scope.OpDelay, cp.Scope.Settle, cp.Scope.Quiesce)
	fmt.Fprintf(&b, "depth %d\n", cp.Depth)
	fmt.Fprintf(&b, "flags por=%v memo=%v\n", cp.POR, cp.ProbeMemo)
	fmt.Fprintf(&b, "stats %d %d %d %d\n",
		cp.Stats.Visited, cp.Stats.Pruned, cp.Stats.Runs, cp.Stats.Deepest)
	writeB64Section(&b, "visitedz", encodeDigests(cp.Visited))
	writeB64Section(&b, "memoz", encodeDigests(cp.Memo))
	writeB64Section(&b, "frontierz", encodeFrontier(cp.Frontier, cp.Sleep))
	return b.String()
}

// writeB64Section emits the payload as tag-prefixed lines of bounded
// width (an empty payload emits nothing).
func writeB64Section(b *strings.Builder, tag, payload string) {
	const width = 96
	for len(payload) > 0 {
		n := width
		if n > len(payload) {
			n = len(payload)
		}
		b.WriteString(tag)
		b.WriteByte(' ')
		b.WriteString(payload[:n])
		b.WriteByte('\n')
		payload = payload[n:]
	}
}

// encodeDigests renders a sorted digest set: uvarint deltas, flate,
// base64. Empty sets render empty.
func encodeDigests(ds []uint64) string {
	if len(ds) == 0 {
		return ""
	}
	raw := make([]byte, 0, len(ds)*5)
	var tmp [binary.MaxVarintLen64]byte
	prev := uint64(0)
	for _, d := range ds {
		n := binary.PutUvarint(tmp[:], d-prev)
		raw = append(raw, tmp[:n]...)
		prev = d
	}
	return deflateB64(raw)
}

func decodeDigests(payload string) ([]uint64, error) {
	if payload == "" {
		return nil, nil
	}
	raw, err := inflateB64(payload)
	if err != nil {
		return nil, err
	}
	var out []uint64
	prev := uint64(0)
	for len(raw) > 0 {
		d, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("truncated digest varint")
		}
		prev += d
		out = append(out, prev)
		raw = raw[n:]
	}
	return out, nil
}

// encodeFrontier renders the frontier as one text line per entry — the
// ";"-joined op prefix, then "|" and the ";"-joined sleep set when the
// entry has one — flate'd and base64-armoured: the shared prefixes
// compress away.
func encodeFrontier(frontier, sleep [][]Op) string {
	if len(frontier) == 0 {
		return ""
	}
	var b strings.Builder
	for i, ops := range frontier {
		for j, op := range ops {
			if j > 0 {
				b.WriteByte(';')
			}
			b.WriteString(op.String())
		}
		if i < len(sleep) && len(sleep[i]) > 0 {
			b.WriteByte('|')
			for j, op := range sleep[i] {
				if j > 0 {
					b.WriteByte(';')
				}
				b.WriteString(op.String())
			}
		}
		b.WriteByte('\n')
	}
	return deflateB64([]byte(b.String()))
}

func decodeFrontier(payload string) (frontier, sleep [][]Op, err error) {
	if payload == "" {
		return nil, nil, nil
	}
	raw, err := inflateB64(payload)
	if err != nil {
		return nil, nil, err
	}
	text := string(raw)
	if !strings.HasSuffix(text, "\n") {
		return nil, nil, fmt.Errorf("frontier section not newline-terminated")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	frontier = make([][]Op, 0, len(lines))
	sawSleep := false
	for _, line := range lines {
		opsText, sleepText, hasSleep := strings.Cut(line, "|")
		ops, err := parseFrontierEntry(opsText)
		if err != nil {
			return nil, nil, err
		}
		frontier = append(frontier, ops)
		var sl []Op
		if hasSleep {
			sawSleep = true
			if sl, err = parseFrontierEntry(sleepText); err != nil {
				return nil, nil, err
			}
		}
		sleep = append(sleep, sl)
	}
	if !sawSleep {
		sleep = nil
	}
	return frontier, sleep, nil
}

// parseFrontierEntry parses one ";"-joined op list ("" = the root entry).
func parseFrontierEntry(line string) ([]Op, error) {
	if line == "" {
		return nil, nil
	}
	var ops []Op
	for _, opText := range strings.Split(line, ";") {
		f := strings.Fields(opText)
		if len(f) == 0 || f[0] != "op" {
			return nil, fmt.Errorf("frontier op must start with %q", "op")
		}
		op, err := parseOp(f[1:])
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func deflateB64(raw []byte) string {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only fires on an invalid level
	}
	_, _ = zw.Write(raw)
	_ = zw.Close()
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// maxInflated bounds what one compressed section may inflate to. A
// -checkpoint file comes from outside the program and flate expands
// about a thousandfold, so without a bound a few KB of input allocate
// without limit. The largest section the tree writes — the frontier of
// the n3g2 depth-8 sweep at its widest, 241,888 entries — inflates to
// 37 MB; this leaves 7× for deeper scopes.
const maxInflated = 256 << 20

func inflateB64(payload string) ([]byte, error) {
	comp, err := base64.StdEncoding.DecodeString(payload)
	if err != nil {
		return nil, err
	}
	zr := flate.NewReader(bytes.NewReader(comp))
	raw, err := io.ReadAll(io.LimitReader(zr, maxInflated+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxInflated {
		return nil, fmt.Errorf("section inflates past the %d-byte limit", maxInflated)
	}
	return raw, zr.Close()
}

// ParseCheckpoint reads the EncodeCheckpoint format.
func ParseCheckpoint(text string) (*Checkpoint, error) {
	cp := &Checkpoint{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	sawHeader := false
	var visitedz, memoz, frontierz strings.Builder
	fail := func(msg string) (*Checkpoint, error) {
		return nil, fmt.Errorf("checkpoint line %d: %s", line, msg)
	}
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if !sawHeader {
			if len(fields) != 2 || fields[0] != "enumcheckpoint" {
				return fail(`expected header "enumcheckpoint v2"`)
			}
			if fields[1] != "v2" {
				return fail("unsupported checkpoint version " + strconv.Quote(fields[1]) + `, only "v2" is read`)
			}
			sawHeader = true
			continue
		}
		switch fields[0] {
		case "scope":
			if len(fields) != 2 {
				return fail("scope wants one value")
			}
			s, err := ParseScope(fields[1])
			if err != nil {
				return fail(err.Error())
			}
			cp.Scope = s
		case "timing":
			if len(fields) != 4 {
				return fail("timing wants <opdelay> <settle> <quiesce>")
			}
			ds := make([]time.Duration, 3)
			for i, f := range fields[1:] {
				d, err := time.ParseDuration(f)
				if err != nil {
					return fail(err.Error())
				}
				ds[i] = d
			}
			cp.Scope.OpDelay, cp.Scope.Settle, cp.Scope.Quiesce = ds[0], ds[1], ds[2]
		case "depth":
			if len(fields) != 2 {
				return fail("depth wants one value")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return fail(err.Error())
			}
			cp.Depth = n
		case "flags":
			for _, f := range fields[1:] {
				switch f {
				case "por=true":
					cp.POR = true
				case "memo=true":
					cp.ProbeMemo = true
				case "por=false", "memo=false":
				default:
					return fail("unknown flag " + strconv.Quote(f))
				}
			}
		case "stats":
			if len(fields) != 5 {
				return fail("stats wants <visited> <pruned> <runs> <deepest>")
			}
			vals := make([]int, 4)
			for i, f := range fields[1:] {
				n, err := strconv.Atoi(f)
				if err != nil {
					return fail(err.Error())
				}
				vals[i] = n
			}
			cp.Stats = EnumStats{Visited: vals[0], Pruned: vals[1], Runs: vals[2], Deepest: vals[3]}
		case "visitedz", "memoz", "frontierz":
			if len(fields) != 2 {
				return fail(fields[0] + " wants one base64 chunk")
			}
			switch fields[0] {
			case "visitedz":
				visitedz.WriteString(fields[1])
			case "memoz":
				memoz.WriteString(fields[1])
			case "frontierz":
				frontierz.WriteString(fields[1])
			}
		default:
			return fail("unknown directive " + strconv.Quote(fields[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("checkpoint: empty input")
	}
	if cp.Scope.Nodes == 0 {
		return nil, fmt.Errorf("checkpoint: scope not set")
	}
	var err error
	if cp.Visited, err = decodeDigests(visitedz.String()); err != nil {
		return nil, fmt.Errorf("checkpoint visitedz: %w", err)
	}
	if cp.Memo, err = decodeDigests(memoz.String()); err != nil {
		return nil, fmt.Errorf("checkpoint memoz: %w", err)
	}
	if cp.Frontier, cp.Sleep, err = decodeFrontier(frontierz.String()); err != nil {
		return nil, fmt.Errorf("checkpoint frontierz: %w", err)
	}
	return cp, nil
}
