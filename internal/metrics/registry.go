package metrics

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe collection of named metric instruments
// (counters, gauges, reservoir-backed histograms), each optionally
// qualified by labels (per-LWG, per-HWG, per-peer, ...). It replaces the
// ad-hoc per-subsystem counter maps: every protocol layer resolves its
// instruments once at construction time and then updates them on the hot
// path with a single atomic operation.
//
// A nil *Registry is a valid, fully disabled registry: every
// resolution method returns a nil instrument, and every instrument
// method is a nil-receiver no-op that performs zero allocations. The
// hot paths therefore carry no conditionals beyond the nil check
// inlined into the instrument methods.
//
// Counters and gauges are atomics, so instruments may be updated from
// any goroutine (the rtnet transport updates them from its socket
// goroutines) and read concurrently by the HTTP /metrics handler.
// Histograms serialize observations with a mutex.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Kind is the instrument type of a metric family.
type Kind int

// The instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Label is one name=value metric dimension.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// family is all instruments sharing one metric name.
type family struct {
	name string
	kind Kind
	// entries maps the canonical label encoding to the instrument.
	entries map[string]*entry
}

// entry is one labeled instrument of a family.
type entry struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histo
}

// HistogramCapacity is the reservoir size of registry histograms.
const HistogramCapacity = 2048

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey returns the canonical encoding of a label set (sorted by
// key). The input slice is not modified.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// resolve finds or creates the labeled entry of the named family,
// checking the instrument kind is consistent.
func (r *Registry) resolve(name string, kind Kind, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, entries: make(map[string]*entry)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v", name, f.kind, kind))
	}
	key := labelKey(labels)
	e := f.entries[key]
	if e == nil {
		ls := append([]Label(nil), labels...)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		e = &entry{labels: ls}
		switch kind {
		case KindCounter:
			e.c = &Counter{}
		case KindGauge:
			e.g = &Gauge{}
		case KindHistogram:
			h := fnv.New64a()
			h.Write([]byte(name))
			h.Write([]byte{0})
			h.Write([]byte(key))
			e.h = &Histo{r: NewReservoir(HistogramCapacity, int64(h.Sum64()))}
		}
		f.entries[key] = e
	}
	return e
}

// Counter resolves (creating on first use) the labeled counter. On a
// nil registry it returns nil, which is a valid disabled counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.resolve(name, KindCounter, labels).c
}

// Gauge resolves (creating on first use) the labeled gauge. On a nil
// registry it returns nil, which is a valid disabled gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.resolve(name, KindGauge, labels).g
}

// Histogram resolves (creating on first use) the labeled histogram. On
// a nil registry it returns nil, which is a valid disabled histogram.
// The backing reservoir's seed derives from the name and labels, so
// deterministic simulations report identical estimates on every run.
func (r *Registry) Histogram(name string, labels ...Label) *Histo {
	if r == nil {
		return nil
	}
	return r.resolve(name, KindHistogram, labels).h
}

// Counter is a monotonically increasing atomic counter. The nil counter
// (from a disabled registry) discards updates without allocating.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta (counters are monotonic; negative deltas are a bug in
// the caller but are not policed on the hot path).
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value. The nil gauge
// (from a disabled registry) discards updates without allocating.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histo is a mutex-guarded duration histogram backed by a bounded
// Reservoir: exact count/mean/min/max, estimated quantiles. The nil
// histogram (from a disabled registry) discards observations.
type Histo struct {
	mu sync.Mutex
	r  *Reservoir
}

// Observe records one duration sample.
func (h *Histo) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.r.Add(d)
	h.mu.Unlock()
}

// Count returns the number of observations (0 on the nil histogram).
func (h *Histo) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.r.Count()
}

// Quantile estimates the p-th percentile (0 on the nil histogram).
func (h *Histo) Quantile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.r.Percentile(p)
}

// summary returns (count, mean, min, max, p50, p99) under the lock.
func (h *Histo) summary() (count int64, mean, min, max, p50, p99 time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.r.Count(), h.r.Mean(), h.r.Min(), h.r.Max(),
		h.r.Percentile(50), h.r.Percentile(99)
}

// Sample is one exported metric value. Histograms flatten into several
// samples with suffixed names (_count, _mean_seconds, _p50_seconds,
// _p99_seconds, _min_seconds, _max_seconds).
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // "k=v,k=v" rendering, sorted by key
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
}

// renderLabels returns the "k=v,k=v" form of a sorted label set.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// Snapshot returns every metric value, deterministically ordered by
// family name then label encoding. On a nil registry it returns nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	r.eachEntry(func(f *family, e *entry) {
		labels := renderLabels(e.labels)
		switch f.kind {
		case KindCounter:
			out = append(out, Sample{f.name, labels, "counter", float64(e.c.Value())})
		case KindGauge:
			out = append(out, Sample{f.name, labels, "gauge", float64(e.g.Value())})
		case KindHistogram:
			count, mean, min, max, p50, p99 := e.h.summary()
			out = append(out,
				Sample{f.name + "_count", labels, "counter", float64(count)},
				Sample{f.name + "_mean_seconds", labels, "gauge", mean.Seconds()},
				Sample{f.name + "_min_seconds", labels, "gauge", min.Seconds()},
				Sample{f.name + "_max_seconds", labels, "gauge", max.Seconds()},
				Sample{f.name + "_p50_seconds", labels, "gauge", p50.Seconds()},
				Sample{f.name + "_p99_seconds", labels, "gauge", p99.Seconds()})
		}
	})
	return out
}

// Totals gives one value per counter family: the sum across its labels.
// The aggregate is what the benchmark baseline records: bounded in size
// no matter how many per-group label values the run created.
func (r *Registry) Totals() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.kind != KindCounter {
			continue
		}
		for _, e := range f.entries {
			out[f.name] += e.c.Value()
		}
	}
	return out
}

// eachEntry visits every entry in deterministic order. The family and
// entry maps are copied under the registry lock, then visited without
// it (instrument reads are atomic / self-locking), so a visitor may
// itself take time without stalling hot-path resolution.
func (r *Registry) eachEntry(fn func(*family, *entry)) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	entries := make(map[*family][]string, len(fams))
	for _, f := range fams {
		keys := make([]string, 0, len(f.entries))
		for k := range f.entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries[f] = keys
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		for _, k := range entries[f] {
			r.mu.Lock()
			e := f.entries[k]
			r.mu.Unlock()
			if e != nil {
				fn(f, e)
			}
		}
	}
}

// WriteText renders the registry in the Prometheus text exposition
// style: "# TYPE" comments followed by 'name{k="v"} value' lines,
// deterministically ordered. Label values are escaped per the
// exposition format (backslash, double quote, newline — and nothing
// else; Go's %q escaping is NOT valid exposition text). On a nil
// registry it writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	write := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	lastFamily := ""
	r.eachEntry(func(f *family, e *entry) {
		if f.name != lastFamily {
			write("# TYPE %s %v\n", f.name, f.kind)
			lastFamily = f.name
		}
		lbl := promLabels(e.labels)
		switch f.kind {
		case KindCounter:
			write("%s%s %v\n", f.name, lbl, float64(e.c.Value()))
		case KindGauge:
			write("%s%s %v\n", f.name, lbl, float64(e.g.Value()))
		case KindHistogram:
			count, mean, min, max, p50, p99 := e.h.summary()
			write("%s_count%s %v\n", f.name, lbl, float64(count))
			write("%s_mean_seconds%s %v\n", f.name, lbl, mean.Seconds())
			write("%s_min_seconds%s %v\n", f.name, lbl, min.Seconds())
			write("%s_max_seconds%s %v\n", f.name, lbl, max.Seconds())
			write("%s_p50_seconds%s %v\n", f.name, lbl, p50.Seconds())
			write("%s_p99_seconds%s %v\n", f.name, lbl, p99.Seconds())
		}
	})
	return err
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double quote and newline, nothing else.
// Exported so scrapers (internal/collect) can invert it exactly.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	// Byte by byte: ranging over runes would rewrite a byte that is not
	// valid UTF-8 (a group name is any string) as U+FFFD.
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promLabels renders a sorted label set as {k="v",k="v"} with escaped
// values (empty string for the unlabeled entry).
func promLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// histogramSuffixes are the sample-name suffixes a histogram flattens
// into; WriteText groups them back under one TYPE comment.
var histogramSuffixes = []string{
	"_count", "_mean_seconds", "_min_seconds", "_max_seconds",
	"_p50_seconds", "_p99_seconds",
}

func histogramBase(name string) string {
	for _, suf := range histogramSuffixes {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}
