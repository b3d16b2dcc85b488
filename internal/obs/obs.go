// Package obs is the cluster-wide observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, fixed-bucket
// latency histograms with quantile export) plus the typed event
// taxonomy — one event type per control-loop decision the system makes
// (task placement, retunes, batch changes, GPU% rescales, memory
// swaps, SLO violations, faults). The events themselves are one view
// of the control-plane record log (span.Log).
//
// Metrics funnel through a *Sink, which is nil-checkable: hot paths
// guard every update with `if sink != nil { ... }`, so the disabled
// path costs exactly one predictable branch and zero allocations (see
// BenchmarkSimObsOff at the repo root). Instruments are safe for
// concurrent use — counters and gauges are atomics, and the sink's one
// lock guards every histogram it hands out, which a per-window writer
// takes once for all its samples (Sink.ObserveAll) — so one sink can
// be shared by concurrent simulations and read by the live telemetry
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

// DefLatencyBuckets is the fixed bucket layout of every Histogram, in
// milliseconds (roughly exponential, 0.5 ms – 5 s; an
// implicit +Inf bucket catches the rest).
var DefLatencyBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// histChunk is the number of samples in one chunk of a Histogram's
// storage (4 KiB): a histogram grows by whole chunks, so it never
// copies the samples it holds and leaves at most one chunk part full.
const histChunk = 512

// Histogram is a latency histogram with exact quantile export: raw
// samples are retained, in fixed-size chunks, and quantiles come from
// the shared stats.Scratch selection, so obs and serving report
// bit-identical percentiles. Count, sum, min, max and the
// DefLatencyBuckets counts (plus an implicit +Inf bucket) for
// Prometheus exposition are derived from the samples at snapshot time,
// so recording a sample is one append: the hot paths batch at window
// granularity (Sink.ObserveAll), and snapshots are rare.
//
// A histogram has no lock of its own. One a Sink hands out is guarded
// by that sink's lock, so it is safe for concurrent use. The zero
// value is ready for a single goroutine.
type Histogram struct {
	guard  *sync.Mutex // the owning sink's lock; nil outside a sink
	n      int
	chunks []*[histChunk]float64
}

// quantileScratch lends selection buffers to snapshot-time quantile
// queries, so a histogram keeps no second copy of its samples.
var quantileScratch = sync.Pool{New: func() any { return new(stats.Scratch) }}

// snapshotPercentiles are the percentiles Stats reports, ascending, so
// each selection runs on what the previous one left.
var snapshotPercentiles = []float64{50, 95, 99}

// Observe records one sample, taking the owning sink's lock for it.
// A writer that records many histograms at once uses Sink.ObserveAll.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.guard == nil {
		h.add(v)
		return
	}
	h.guard.Lock()
	h.add(v)
	h.guard.Unlock()
}

// add appends v under the guard.
func (h *Histogram) add(v float64) {
	i := h.n % histChunk
	if i == 0 {
		h.chunks = append(h.chunks, new([histChunk]float64))
	}
	h.chunks[len(h.chunks)-1][i] = v
	h.n++
}

// Stats snapshots the histogram under the owning sink's lock.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	if h.guard != nil {
		h.guard.Lock()
		defer h.guard.Unlock()
	}
	return h.stats()
}

// stats copies the samples once, in observation order, into a pooled
// scratch buffer. It walks that copy for the sum, extremes and bucket
// counts, then reads the percentiles from it by selection.
func (h *Histogram) stats() HistogramStats {
	s := HistogramStats{Count: uint64(h.n)}
	if h.n == 0 {
		return s
	}
	sc := quantileScratch.Get().(*stats.Scratch)
	defer quantileScratch.Put(sc)
	xs := sc.Buffer(h.n)
	for i, c := range h.chunks {
		copy(xs[i*histChunk:], c[:])
	}
	counts := make([]uint64, len(DefLatencyBuckets)+1)
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		counts[sort.SearchFloat64s(DefLatencyBuckets, v)]++
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	var q [3]float64
	sc.Percentiles(snapshotPercentiles, q[:])
	s.P50, s.P95, s.P99 = q[0], q[1], q[2]
	s.Buckets = make([]BucketCount, 0, len(DefLatencyBuckets))
	var cum uint64
	for i, b := range DefLatencyBuckets {
		cum += counts[i]
		s.Buckets = append(s.Buckets, BucketCount{Le: b, Count: cum})
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

// Sink is the metrics registry: named instruments, nil-receiver-safe
// (a nil *Sink disables metrics). Get-or-create lookups take the
// sink's lock, which also guards every histogram it hands out; hot
// paths should resolve instruments once (at setup time) and keep the
// returned pointers.
type Sink struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewSink returns an empty sink.
func NewSink() *Sink {
	return &Sink{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Sink) Counter(name string) *Counter {
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
func (r *Sink) Gauge(name string) *Gauge {
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

// Histogram returns the named histogram, creating it on first use.
func (r *Sink) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{guard: &r.mu}
		r.hists[name] = h
	}
	return h
}

// Entry is one histogram's sample in a batch written by
// Sink.ObserveAll.
type Entry struct {
	Histogram *Histogram
	Value     float64
}

// ObserveAll records one sample per entry, in entry order, under one
// acquisition of the sink's lock. It is equivalent to calling Observe
// on each entry, and is the form for a writer that records many
// histograms per window. Every entry's histogram must come from r.
func (r *Sink) ObserveAll(es []Entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range es {
		if e.Histogram.guard != &r.mu {
			panic("obs: ObserveAll: histogram from another sink")
		}
		e.Histogram.add(e.Value)
	}
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

// Metrics is a point-in-time snapshot of a sink — the simulation-
// end roll-up carried by cluster.Result and exported as mudi.Metrics.
type Metrics struct {
	Counters   map[string]float64        `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Sink) Snapshot() *Metrics {
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
		m.Histograms[name] = h.stats()
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
