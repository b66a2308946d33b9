package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sends_total", L("group", "chat"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Re-resolving the same name+labels yields the same instrument.
	if r.Counter("sends_total", L("group", "chat")) != c {
		t.Error("re-resolution returned a different counter")
	}
	// Different labels yield a different instrument.
	if r.Counter("sends_total", L("group", "news")) == c {
		t.Error("different labels shared an instrument")
	}

	g := r.Gauge("groups")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("b", "2"), L("a", "1"))
	b := r.Counter("x", L("a", "1"), L("b", "2"))
	if a != b {
		t.Error("label order changed instrument identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flush", L("hwg", "hwg1"))
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Quantile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
}

func TestRegistryHistogramDeterministicSeed(t *testing.T) {
	// Same name+labels on two registries must estimate identically for
	// identical observation sequences (reservoir seeds derive from the
	// metric identity).
	run := func() time.Duration {
		h := NewRegistry().Histogram("flush", L("hwg", "hwg9"))
		for i := 0; i < 50_000; i++ {
			h.Observe(time.Duration(i%977) * time.Microsecond)
		}
		return h.Quantile(90)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same identity produced different estimates: %v vs %v", a, b)
	}
}

func TestRegistrySnapshotAndTotals(t *testing.T) {
	r := NewRegistry()
	r.Counter("sends_total", L("group", "a")).Add(3)
	r.Counter("sends_total", L("group", "b")).Add(4)
	r.Gauge("groups").Set(2)
	r.Histogram("lat").Observe(time.Second)

	tot := r.Totals()
	if tot["sends_total"] != 7 {
		t.Errorf("Totals[sends_total] = %d, want 7", tot["sends_total"])
	}
	if _, ok := tot["groups"]; ok {
		t.Error("Totals must cover counters only")
	}

	snap := r.Snapshot()
	names := make(map[string]bool)
	for _, s := range snap {
		names[s.Name] = true
	}
	for _, want := range []string{"sends_total", "groups", "lat_count", "lat_p99_seconds"} {
		if !names[want] {
			t.Errorf("snapshot missing %q (have %v)", want, snap)
		}
	}
	// Deterministic ordering.
	for i := range snap {
		if i > 0 && snap[i-1].Name == snap[i].Name && snap[i-1].Labels > snap[i].Labels {
			t.Errorf("snapshot labels out of order at %d: %v", i, snap)
		}
	}
}

// TestTotalsSumsEachFamily: a counter family totals to the sum of its
// entries, whatever their label keys, and each family on its own.
func TestTotalsSumsEachFamily(t *testing.T) {
	type inc struct {
		labels []Label
		n      int64
	}
	cases := []struct {
		name string
		incs []inc
		want int64
	}{
		{"labelled only: summed", []inc{{[]Label{L("lwg", "a")}, 3}, {[]Label{L("lwg", "b")}, 4}}, 7},
		{"unlabelled only", []inc{{nil, 5}}, 5},
		{"two label keys, no aggregate", []inc{{[]Label{L("hwg", "1"), L("lwg", "a")}, 2}, {[]Label{L("lwg", "a")}, 2}}, 4},
	}
	for _, c := range cases {
		r := NewRegistry()
		for _, i := range c.incs {
			r.Counter("lwg_sends_total", i.labels...).Add(i.n)
		}
		r.Counter("other_total", L("k", "v")).Add(1) // a neighbouring family is unaffected
		tot := r.Totals()
		if tot["lwg_sends_total"] != c.want || tot["other_total"] != 1 {
			t.Errorf("%s: Totals = %v, want lwg_sends_total %d and other_total 1", c.name, tot, c.want)
		}
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sends_total", L("group", "chat")).Add(5)
	r.Gauge("groups").Set(1)
	r.Histogram("lat").Observe(2 * time.Second)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sends_total counter",
		`sends_total{group="chat"} 5`,
		"# TYPE groups gauge",
		"groups 1",
		"# TYPE lat histogram",
		"lat_count 1",
		"lat_max_seconds 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTextLabelEscaping pins the Prometheus exposition escaping
// rules on hostile label values: exactly backslash, double quote and
// newline are escaped (as \\, \" and \n), and nothing else — Go's %q
// would emit \x.. sequences no exposition parser accepts.
func TestWriteTextLabelEscaping(t *testing.T) {
	cases := []struct {
		name     string
		value    string
		rendered string
	}{
		{"plain", "chat", `chat`},
		{"backslash", `a\b`, `a\\b`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all-three", "\\\"\n", `\\\"\n`},
		{"comma-equals", `k=v,x=y`, `k=v,x=y`},          // structural chars pass through inside quotes
		{"tab-and-unicode", "a\tb\u00e9", "a\tb\u00e9"}, // NOT escaped: only \ " and newline are
		{"trailing-backslash", `c:\`, `c:\\`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("escape_total", L("lwg", tc.value)).Add(7)
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			want := `escape_total{lwg="` + tc.rendered + `"} 7`
			if !strings.Contains(b.String(), want+"\n") {
				t.Errorf("WriteText(%q): missing %q in:\n%s", tc.value, want, b.String())
			}
		})
	}
}

func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x", L("a", "b"))
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(50) != 0 {
		t.Error("nil instruments must read as zero")
	}
	if r.Snapshot() != nil || r.Totals() != nil {
		t.Error("nil registry must snapshot as nil")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}
}

// TestDisabledRegistryZeroAlloc is the metrics-overhead guard: the
// instrument updates compiled into the protocol hot paths must cost
// zero allocations when the registry is disabled (nil instruments).
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histo
	)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(time.Millisecond)
	}); n != 0 {
		t.Errorf("disabled instruments allocated %v per run, want 0", n)
	}
}

// TestEnabledCounterZeroAlloc pins the enabled hot path too: updating a
// resolved counter or gauge is a single atomic op with no allocation.
func TestEnabledCounterZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("y")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(2)
	}); n != 0 {
		t.Errorf("enabled counter/gauge allocated %v per run, want 0", n)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("sends_total", L("group", string(rune('a'+i%4))))
			h := r.Histogram("lat")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j))
			}
		}(i)
	}
	// Concurrent reader (the /metrics handler).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WriteText(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Totals()["sends_total"]; got != 8000 {
		t.Errorf("sends_total = %d, want 8000", got)
	}
}

// BenchmarkRegistryHotPath measures the per-update cost of the enabled
// instruments as used on the protocol hot paths: pre-resolved handles,
// one update per operation.
func BenchmarkRegistryHotPath(b *testing.B) {
	r := NewRegistry()
	b.Run("counter", func(b *testing.B) {
		c := r.Counter("bench_counter")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-disabled", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		g := r.Gauge("bench_gauge")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		h := r.Histogram("bench_hist")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i))
		}
	})
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = r.Counter("bench_counter")
		}
	})
}
