package explore

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzParseCheckpoint feeds ParseCheckpoint arbitrary -checkpoint file
// contents: it must not panic, and whatever parses must survive Encode →
// Parse unchanged (so Encode is a fixed point from then on, and no
// section of it is past maxInflated, or the second Parse would refuse
// it). Seeds: a live budget-cut sweep and the committed corpus — a
// checkpoint, and one file per way ParseCheckpoint rejects its input.
func FuzzParseCheckpoint(f *testing.F) {
	res := Enumerate(EnumConfig{
		Scope:     Scope{Nodes: 2, Groups: 1, Quiesce: 8 * time.Second},
		Depth:     4,
		Budget:    40,
		POR:       true,
		ProbeMemo: true,
	})
	if res.Checkpoint == nil {
		f.Fatal("n2g1 depth 4 swept within 40 runs; no checkpoint to seed from")
	}
	f.Add(EncodeCheckpoint(res.Checkpoint))
	f.Fuzz(func(t *testing.T, text string) {
		cp, err := ParseCheckpoint(text)
		if err != nil {
			return
		}
		enc := EncodeCheckpoint(cp)
		again, err := ParseCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-parse of an encoded checkpoint: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, cp) {
			t.Fatalf("Parse → Encode → Parse changed the checkpoint:\n%+v\nvs\n%+v", cp, again)
		}
	})
}

// TestCheckpointOversizedSectionRejected: a well-formed v2 file of a few
// hundred KB whose visitedz section inflates past maxInflated is refused
// with an error naming the limit, having allocated no more than reading
// up to the limit costs. (Maximal varints, so a parser without the limit
// keeps a digest per ten bytes on top of the inflated bytes.) It is not
// a fuzz seed: inflating a quarter of a GiB per execution would starve
// the mutator of every other input.
func TestCheckpointOversizedSectionRejected(t *testing.T) {
	// One MiB of maximal varints, deflated and sync-flushed: the compressed
	// bytes end on a byte boundary and refer to nothing before them, so
	// repeating them repeats the MiB without deflating a quarter GiB here.
	varint := binary.AppendUvarint(nil, ^uint64(0))
	var mib bytes.Buffer
	zw, err := flate.NewWriter(&mib, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = zw.Write(bytes.Repeat(varint, (1<<20)/len(varint)))
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	comp := bytes.Repeat(mib.Bytes(), maxInflated>>20+2)
	comp = append(comp, 0x01, 0x00, 0x00, 0xff, 0xff) // the final, empty stored block
	var b strings.Builder
	b.WriteString("enumcheckpoint v2\nscope n2g1\n")
	writeB64Section(&b, "visitedz", base64.StdEncoding.EncodeToString(comp))
	text := b.String()
	if len(text) > 1<<20 {
		t.Fatalf("the oversized input is itself %d bytes; it is meant to be small", len(text))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ParseCheckpoint(text)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("a %d-byte file inflating past %d bytes was not refused (error %v, %d bytes allocated)",
			len(text), maxInflated, err, allocated)
	}
	// io.ReadAll grows its buffer by a quarter at a time, so reading
	// maxInflated+1 bytes allocates about five times that in total; the
	// scanner and the base64 decode are noise next to it.
	if allocated > 6*maxInflated {
		t.Fatalf("refusing the file allocated %d bytes, more than 6 × the %d-byte limit", allocated, maxInflated)
	}
	t.Logf("refused a %d-byte file after allocating %d bytes", len(text), allocated)
}
