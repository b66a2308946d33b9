// Package collect implements the cluster-side half of the observability
// plane: a collector that polls every node's debug endpoint (/metrics,
// /debug/trace, /debug/lwg), merges the per-node trace rings into one
// cross-node event set, stitches protocol operations out of it, and
// derives a partition-aware view of cluster health. The collector is an
// outside observer — it talks HTTP only, never the protocol wire — so it
// keeps working (on last known state) across any cluster partition.
package collect

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"plwg/internal/metrics"
)

// Sample is one parsed metric sample: a name, a sorted label set and a
// value. It mirrors what metrics.WriteText emits, plus whatever extra
// labels the collector attaches (node).
type Sample struct {
	Name   string
	Labels []metrics.Label
	Value  float64
}

// labelString renders the sample's labels in the escaped {k="v"} form.
func (s Sample) labelString() string {
	if len(s.Labels) == 0 {
		return ""
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = l.Key + `="` + metrics.EscapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ParseText parses a Prometheus text exposition (the subset WriteText
// emits: # comments, 'name value' and 'name{k="v",...} value' lines)
// back into samples. It is the exact inverse of the writer, including
// label-value unescaping (\\, \" and \n), so hostile label values — a
// group named `a"b\c` — survive the scrape round trip.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("collect: metrics line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value: %q", line)
	}
	if i == 0 {
		return s, fmt.Errorf("no metric name: %q", line)
	}
	s.Name, rest = rest[:i], rest[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block and returns the remainder of
// the line. Values are unescaped; the label set is returned sorted by
// key (the canonical order the registry uses).
func parseLabels(in string) ([]metrics.Label, string, error) {
	if !strings.HasPrefix(in, "{") {
		return nil, in, fmt.Errorf("labels: missing '{'")
	}
	rest := in[1:]
	var labels []metrics.Label
	for {
		rest = strings.TrimLeft(rest, ",")
		if strings.HasPrefix(rest, "}") {
			rest = rest[1:]
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, in, fmt.Errorf("labels: missing '=' in %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, in, fmt.Errorf("labels: unquoted value for %q", key)
		}
		value, tail, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return nil, in, fmt.Errorf("labels: value of %q: %w", key, err)
		}
		labels = append(labels, metrics.L(key, value))
		rest = tail
	}
	// Stable: a repeated key keeps its values in the order they arrived.
	sort.SliceStable(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return labels, rest, nil
}

// unquoteLabelValue reads an escaped label value up to its closing
// quote, inverting the exposition escapes: \\ → backslash, \" → quote,
// \n → newline. Any other escape is an error (the writer never emits
// one).
func unquoteLabelValue(in string) (value, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return b.String(), in[i+1:], nil
		case '\\':
			i++
			if i >= len(in) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated value")
}
