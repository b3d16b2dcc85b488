// Package obs is the cluster-wide observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, fixed-bucket
// latency histograms with quantile export) plus a structured event log
// with typed events for every control-loop decision the system makes
// (task placement, retunes, batch changes, GPU% rescales, memory
// swaps, SLO violations).
//
// Everything funnels through a *Sink, which is nil-checkable: hot
// paths guard every emission with `if sink != nil { ... }`, so the
// disabled path costs exactly one predictable branch and zero
// allocations (see BenchmarkSimObsOff at the repo root). Instruments
// are safe for concurrent use — counters and gauges are atomics,
// histograms and the event log take a short mutex — so one sink can be
// shared by concurrent simulations and read by the live telemetry
// handlers while a run is in flight.
//
// Observation is passive by contract: an enabled sink must never
// perturb simulation results. The determinism tests assert that
// Result.Summary() is byte-identical with and without an active sink.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mudi/internal/stats"
)

// Counter is a monotonically increasing float64, safe for concurrent
// use. The zero value is ready.
type Counter struct {
	bits atomic.Uint64 // float64 bits, CAS-updated
}

// Add increments the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64, safe for concurrent use. The zero value
// is ready.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets is the default fixed bucket layout for latency
// histograms, in milliseconds (roughly exponential, 0.5 ms – 5 s; an
// implicit +Inf bucket catches the rest).
var DefLatencyBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Histogram is a latency histogram with exact quantile export: raw
// samples are retained and quantiles come from the shared
// stats.Scratch selection, so obs and serving report
// bit-identical percentiles. Fixed bucket counts (upper bounds plus
// an implicit +Inf bucket) are maintained alongside for Prometheus
// exposition. Observations are mutex-protected (the hot paths batch
// at window granularity).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds
	counts  []uint64  // len(bounds)+1; last is +Inf
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64
}

// quantileScratch lends selection buffers to snapshot-time quantile
// queries, so a histogram keeps no second copy of its samples.
var quantileScratch = sync.Pool{New: func() any { return new(stats.Scratch) }}

// NewHistogram returns a histogram over the given sorted upper bounds
// (DefLatencyBuckets if nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]uint64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// Quantile returns the exact q-quantile (0 < q ≤ 1) of the observed
// samples, with the closest-rank interpolation the serving path uses
// (stats.Scratch.Percentile: selection, bit-identical to sorting).
// Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	sc := quantileScratch.Get().(*stats.Scratch)
	defer quantileScratch.Put(sc)
	return sc.Percentile(h.samples, q*100)
}

// Buckets returns copies of the bucket upper bounds and per-bucket
// counts (the extra trailing count is the +Inf bucket) — the
// Prometheus exposition shape.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// Stats snapshots the histogram, reading each percentile by selection
// over a pooled scratch copy of the samples (as Quantile does).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		sc := quantileScratch.Get().(*stats.Scratch)
		s.Min, s.Max = h.min, h.max
		s.Mean = h.sum / float64(h.count)
		s.P50 = sc.Percentile(h.samples, 50)
		s.P95 = sc.Percentile(h.samples, 95)
		s.P99 = sc.Percentile(h.samples, 99)
		quantileScratch.Put(sc)
		s.Buckets = make([]BucketCount, 0, len(h.bounds))
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			s.Buckets = append(s.Buckets, BucketCount{Le: b, Count: cum})
		}
	}
	return s
}

// BucketCount is one cumulative histogram bucket: Count samples were
// ≤ Le (Prometheus `le` semantics). The implicit +Inf bucket is not
// listed — its cumulative count is HistogramStats.Count, which keeps
// the struct marshalable by encoding/json (no non-finite values).
type BucketCount struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramStats is one histogram's exported summary.
type HistogramStats struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Registry holds named instruments. Get-or-create lookups take a
// mutex; hot paths should resolve instruments once (at setup time) and
// keep the returned pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds (DefLatencyBuckets if nil) on first use. Later calls ignore
// bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Labeled builds the canonical labeled metric name,
// `name{device="...",service="..."}`, omitting empty labels. Call it
// at instrument-resolution time, not on the hot path.
func Labeled(name, device, service string) string {
	switch {
	case device == "" && service == "":
		return name
	case service == "":
		return fmt.Sprintf("%s{device=%q}", name, device)
	case device == "":
		return fmt.Sprintf("%s{service=%q}", name, service)
	default:
		return fmt.Sprintf("%s{device=%q,service=%q}", name, device, service)
	}
}

// ClassLabeled builds the canonical class-labeled metric name,
// `name{class="..."}` — the SLO-class roll-up analogue of Labeled.
func ClassLabeled(name, class string) string {
	if class == "" {
		return name
	}
	return fmt.Sprintf("%s{class=%q}", name, class)
}

// Metrics is a point-in-time snapshot of a registry — the simulation-
// end roll-up carried by cluster.Result and exported as mudi.Metrics.
type Metrics struct {
	Counters   map[string]float64        `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() *Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &Metrics{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
	}
	for name, c := range r.counters {
		m.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		m.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		m.Histograms[name] = h.Stats()
	}
	return m
}

// metricLine is one NDJSON metrics record.
type metricLine struct {
	Kind  string  `json:"kind"`
	Name  string  `json:"name"`
	Value float64 `json:"value,omitempty"`
	// Histogram summary (kind == "histogram").
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// WriteNDJSON streams the snapshot as newline-delimited JSON, one
// metric per line, sorted by (kind, name) so output is deterministic.
func (m *Metrics) WriteNDJSON(w io.Writer) error {
	if m == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	emit := func(line metricLine) error { return enc.Encode(line) }
	for _, name := range sortedKeys(m.Counters) {
		if err := emit(metricLine{Kind: "counter", Name: name, Value: m.Counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(m.Gauges) {
		if err := emit(metricLine{Kind: "gauge", Name: name, Value: m.Gauges[name]}); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(m.Histograms))
	for name := range m.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := m.Histograms[name]
		if err := emit(metricLine{
			Kind: "histogram", Name: name,
			Count: h.Count, Sum: h.Sum, Mean: h.Mean,
			P50: h.P50, P95: h.P95, P99: h.P99,
		}); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
