package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"mudi/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
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
	h := NewHistogram([]float64{10, 20, 50, 100})
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
	// Samples far past the last bucket bound land in the +Inf bucket
	// yet still get exact quantiles: since PR 5 the histogram retains
	// raw samples and quantiles are exact order statistics, so
	// Quantile(0.99) of {1000, 2000} interpolates at rank 0.99.
	h := NewHistogram([]float64{1, 2})
	h.Observe(1000)
	h.Observe(2000)
	if got, want := h.Quantile(0.99), 1990.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("+Inf-bucket quantile = %v, want exact interpolated %v", got, want)
	}
	if got := h.Quantile(1); got != 2000 {
		t.Fatalf("quantile(1) = %v, want the observed max", got)
	}
	// Bucket counts stay maintained for Prometheus exposition.
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || len(counts) != 3 || counts[2] != 2 {
		t.Fatalf("buckets = %v / %v, want both samples in +Inf", bounds, counts)
	}
	var nh *Histogram
	nh.Observe(1) // nil-safe
	if nh.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile should be 0")
	}
	if b, c := nh.Buckets(); b != nil || c != nil {
		t.Fatal("nil histogram buckets should be nil")
	}
}

func TestHistogramMatchesStatsPercentile(t *testing.T) {
	// obs and serving must report bit-identical percentiles from the
	// one shared implementation.
	h := NewHistogram(nil)
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8.97, 120.5, 0.2}
	for _, x := range xs {
		h.Observe(x)
	}
	var sc stats.Scratch
	for _, p := range []float64{50, 95, 99} {
		want := sc.Percentile(xs, p)
		if got := h.Quantile(p / 100); got != want {
			t.Fatalf("P%v = %v, want stats.Scratch value %v", p, got, want)
		}
	}
	s := h.Stats()
	if s.P99 != sc.P99(xs) {
		t.Fatalf("Stats P99 = %v, want %v", s.P99, sc.P99(xs))
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(2)
	for i := 0; i < 5; i++ {
		l.Append(Event{Time: float64(i), Type: EventRetune})
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", l.Dropped())
	}
	evs := l.Events()
	evs[0].Time = 99 // copies, not aliases
	if l.Events()[0].Time != 0 {
		t.Fatal("Events() must return a copy")
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
	s.Emit(Event{Type: EventTaskPlaced})
	s.Counter("x").Inc()
	s.Gauge("y").Set(1)
	s.Histogram("z", nil).Observe(1)
	if s.Snapshot() != nil {
		t.Fatal("nil sink snapshot should be nil")
	}
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
}

func TestSinkEmitFansOut(t *testing.T) {
	s := NewSink()
	var seen []Event
	s.Observer = func(e Event) { seen = append(seen, e) }
	s.Emit(Event{Time: 1, Type: EventBatchChanged, Value: 128})
	if len(seen) != 1 || s.Log.Len() != 1 {
		t.Fatalf("observer saw %d, log has %d; want 1/1", len(seen), s.Log.Len())
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
	s.Histogram("lat_ms", nil).Observe(12)
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

// TestConcurrentInstruments drives every instrument kind and the event
// log from many goroutines; run under -race this proves the sink is
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
			h := s.Histogram("shared_ms", nil)
			g := s.Gauge("shared_gauge")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
				g.Set(float64(w))
				s.Emit(Event{Time: float64(i), Type: EventMemSwapOut, Value: 1})
			}
		}(w)
	}
	wg.Wait()
	if got := s.Counter("shared_total").Value(); got != workers*per {
		t.Fatalf("counter = %v, want %d", got, workers*per)
	}
	if got := s.Histogram("shared_ms", nil).Stats().Count; got != workers*per {
		t.Fatalf("histogram count = %v, want %d", got, workers*per)
	}
	if got := s.Log.Len() + int(s.Log.Dropped()); got != workers*per {
		t.Fatalf("log+dropped = %d, want %d", got, workers*per)
	}
}
