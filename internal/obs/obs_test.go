package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mudi/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := NewSink()
	c := r.Counter("placements_total")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if r.Counter("placements_total") != c {
		t.Fatal("counter lookup is not idempotent")
	}
	g := r.Gauge("queue_depth")
	g.Set(7)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	// Nil instruments are safe no-ops.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	if nc.Value() != 0 || ng.Value() != 0 {
		t.Fatal("nil instruments should read zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i)) // uniform 1..100
	}
	s := h.Stats()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Uniform data: interpolated quantiles should land near the truth.
	if s.P50 < 40 || s.P50 > 60 {
		t.Fatalf("p50 = %v, want ≈50", s.P50)
	}
	if s.P99 < 90 || s.P99 > 100 {
		t.Fatalf("p99 = %v, want ≈99", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	// Samples past the last bucket bound land in the +Inf bucket yet
	// still get exact quantiles: the histogram retains raw samples and
	// quantiles are exact order statistics, so P99 of {6000, 7000}
	// interpolates at rank 0.99.
	h := &Histogram{}
	h.Observe(6000)
	h.Observe(7000)
	s := h.Stats()
	if want := 6990.0; math.Abs(s.P99-want) > 1e-9 {
		t.Fatalf("+Inf-bucket P99 = %v, want exact interpolated %v", s.P99, want)
	}
	if s.Max != 7000 {
		t.Fatalf("max = %v, want 7000", s.Max)
	}
	// Cumulative bucket counts stay maintained for Prometheus
	// exposition; the +Inf bucket's count is Count.
	if len(s.Buckets) != len(DefLatencyBuckets) || s.Buckets[len(s.Buckets)-1].Count != 0 || s.Count != 2 {
		t.Fatalf("buckets = %v (count %d), want both samples in +Inf", s.Buckets, s.Count)
	}
	var nh *Histogram
	nh.Observe(1) // nil-safe
	if st := nh.Stats(); st.Count != 0 || st.P99 != 0 || st.Buckets != nil {
		t.Fatalf("nil histogram stats = %+v, want zero", st)
	}
}

func TestHistogramMatchesStatsPercentile(t *testing.T) {
	// obs and serving must report bit-identical percentiles from the
	// one shared implementation.
	h := &Histogram{}
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8.97, 120.5, 0.2}
	for _, x := range xs {
		h.Observe(x)
	}
	var sc stats.Scratch
	s := h.Stats()
	for _, c := range []struct{ p, got float64 }{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
		if want := sc.Percentile(xs, c.p); c.got != want {
			t.Fatalf("P%v = %v, want stats.Scratch value %v", c.p, c.got, want)
		}
	}
}

func TestEventTypeJSONRoundTrip(t *testing.T) {
	for typ := EventType(0); typ < numEventTypes; typ++ {
		b, err := json.Marshal(typ)
		if err != nil {
			t.Fatal(err)
		}
		var back EventType
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != typ {
			t.Fatalf("round trip %v → %v", typ, back)
		}
	}
	var bad EventType
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err == nil {
		t.Fatal("unknown event name should fail to unmarshal")
	}
}

func TestNilSinkIsNoop(t *testing.T) {
	var s *Sink
	s.Counter("x").Inc()
	s.Gauge("y").Set(1)
	s.Histogram("z").Observe(1)
	if s.Snapshot() != nil {
		t.Fatal("nil sink snapshot should be nil")
	}
}

func TestLabeled(t *testing.T) {
	cases := map[[2]string]string{
		{"", ""}:         "m",
		{"gpu0", ""}:     `m{device="gpu0"}`,
		{"", "BERT"}:     `m{service="BERT"}`,
		{"gpu0", "BERT"}: `m{device="gpu0",service="BERT"}`,
	}
	for in, want := range cases {
		if got := Labeled("m", in[0], in[1]); got != want {
			t.Errorf("Labeled(m, %q, %q) = %q, want %q", in[0], in[1], got, want)
		}
	}
}

func TestSnapshotNDJSONDeterministic(t *testing.T) {
	s := NewSink()
	s.Counter("b_total").Add(2)
	s.Counter("a_total").Add(1)
	s.Gauge("util").Set(0.5)
	s.Histogram("lat_ms").Observe(12)
	render := func() string {
		var buf bytes.Buffer
		if err := s.Snapshot().WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("NDJSON snapshot output is not deterministic")
		}
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 metric lines, got %d:\n%s", len(lines), first)
	}
	if !strings.Contains(lines[0], `"a_total"`) || !strings.Contains(lines[1], `"b_total"`) {
		t.Fatalf("counters not sorted by name:\n%s", first)
	}
	for _, line := range lines {
		var parsed map[string]any
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
	}
}

// TestConcurrentInstruments drives every instrument kind from many
// goroutines; run under -race this proves the sink is
// safe to share (-parallel cells and the live /metrics handler both do).
func TestConcurrentInstruments(t *testing.T) {
	s := NewSink()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Counter("shared_total")
			h := s.Histogram("shared_ms")
			g := s.Gauge("shared_gauge")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := s.Counter("shared_total").Value(); got != workers*per {
		t.Fatalf("counter = %v, want %d", got, workers*per)
	}
	if got := s.Histogram("shared_ms").Stats().Count; got != workers*per {
		t.Fatalf("histogram count = %v, want %d", got, workers*per)
	}
}

// TestObserveAllDuringSnapshot publishes windows in batches on one
// goroutine while another snapshots the sink; under -race it checks
// that the sink's lock alone guards its histograms. Every snapshot
// sees whole windows: each histogram holds the same number of
// samples.
func TestObserveAllDuringSnapshot(t *testing.T) {
	const devices, windows = 64, 200
	s := NewSink()
	es := make([]Entry, devices)
	for i := range es {
		es[i].Histogram = s.Histogram(Labeled("inf_latency_ms", fmt.Sprintf("gpu%04d", i), "bert"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < windows; w++ {
			for i := range es {
				es[i].Value = float64(w + i)
			}
			s.ObserveAll(es)
		}
	}()
	check := func(m *Metrics) uint64 {
		want := m.Histograms[Labeled("inf_latency_ms", "gpu0000", "bert")].Count
		for name, h := range m.Histograms {
			if h.Count != want {
				t.Fatalf("%s holds %d samples, gpu0000 %d: a snapshot split a window", name, h.Count, want)
			}
		}
		return want
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check(s.Snapshot())
	}
	if got := check(s.Snapshot()); got != windows {
		t.Fatalf("count %d after the writer finished, want %d", got, windows)
	}
}
