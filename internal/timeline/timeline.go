// Package timeline is the multi-resolution time-series store behind
// the simulator's trajectory telemetry: per-window samples land in
// fixed-capacity ring buffers at raw resolution and cascade into
// tiered downsampled levels (min/max/sum/count merges), so a week-long
// simulation stays bounded while recent history keeps full detail.
//
// The store follows the obs.Sink / span.Log conventions:
//
//   - nil-when-disabled: a nil *Store (and the nil *Series handles it
//     hands out) is a valid no-op — every call site costs one branch;
//   - passive: recording never perturbs the simulation. Result
//     summaries and the determinism contract exclude timeline state;
//   - deterministic where the data is: series fed from simulated-time
//     accumulators merged in global device order are byte-identical
//     across lane and worker counts. Engine self-profiling series
//     (Kind.Profile()) carry wall-clock measurements and are excluded
//     from Fingerprint.
//
// Series are keyed by a small typed taxonomy (Kind) plus a free-form
// scope (service name, class wire name, empty for fleet/engine
// signals). Handles are resolved once at construction; Add is a mutex
// acquisition plus ring stores, allocation-free after warm-up, and
// safe against concurrent HTTP readers (the live /timeline + /watch
// endpoints). Store.AddAll records a window's samples under one
// acquisition.
package timeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"mudi/internal/stats"
)

// Kind identifies one signal in the timeline taxonomy.
type Kind uint8

// The taxonomy. Per-service kinds scope on the service name, per-class
// kinds on the class wire name, fleet and engine kinds use an empty
// scope.
const (
	// KindUnknown is the zero value; ParseKind never returns it for a
	// known wire name.
	KindUnknown Kind = iota

	// ServiceQPS is the offered load (requests/s) summed over the
	// devices hosting the service, one sample per control window.
	ServiceQPS
	// ServiceAdmitted is the offered load minus the admission-control
	// shed rate (requests/s).
	ServiceAdmitted
	// ServiceShed is the requests dropped by admission control in the
	// window (a count, not a rate).
	ServiceShed
	// ServiceP99 is the mean measured window latency (ms) across the
	// service's live devices.
	ServiceP99
	// ServiceViolation is the fraction of the service's measured
	// device-windows that blew their budget this window.
	ServiceViolation
	// ServiceBatch / ServiceGPUShare are the mean batch size and GPU
	// share Δ over the service's measured device-windows; with the
	// admitted QPS they give the window budget, SLOms·batch/admitted.
	ServiceBatch
	ServiceGPUShare
	// ServiceSwappedMB is the co-located training memory swapped out to
	// the host, summed over the service's measured devices.
	ServiceSwappedMB
	// ServicePaused counts the service's measured devices whose
	// co-located training is paused.
	ServicePaused

	// ClassQPS / ClassShed / ClassViolation are the per-SLO-class
	// roll-ups of the corresponding service signals (class-aware runs
	// only).
	ClassQPS
	ClassShed
	ClassViolation

	// FleetSMUtil / FleetMemUtil are the cluster-mean SM and memory
	// utilization per window (the live form of Result.SMUtil/MemUtil).
	FleetSMUtil
	FleetMemUtil
	// FleetDownDevices counts devices inside an injected outage.
	FleetDownDevices
	// FleetQueueDepth is the training scheduler backlog.
	FleetQueueDepth
	// FleetMemPressure counts devices above 90% memory utilization.
	FleetMemPressure

	// Engine self-profiling kinds: wall-clock measurements of the event
	// engine itself (ROADMAP item 1's superlinear-component question).
	// All Profile() kinds are excluded from Fingerprint — wall-clock is
	// inherently nondeterministic.
	//
	// EngineWindowMs is the engine's wall-clock per barrier, the sum of
	// its phases: the lanes' device step, and the mail apply, window
	// observations included (EngineDrainMs / EngineApplyMs). EngineMergeMs is kept for
	// readers of the series and is always 0: the mail needs no merge.
	// The engine also reports the mail volume, the stepped-device
	// imbalance between the busiest and laziest lane, and Go runtime
	// heap/GC samples. EngineHelperLanes is how many lanes a window's
	// lane workers stepped rather than the run's own goroutine (0 on
	// the inline step), and EngineStepWaitMs how long the run's
	// goroutine waited for those lanes once it had none left to claim.
	EngineWindowMs
	EngineDrainMs
	EngineMergeMs
	EngineApplyMs
	EngineMail
	EngineLaneImbalance
	EngineHeapBytes
	EngineGCCycles
	EngineHelperLanes
	EngineStepWaitMs

	kindCount
)

// kindNames are the wire names, in Kind order.
var kindNames = [kindCount]string{
	KindUnknown:         "unknown",
	ServiceQPS:          "service_qps",
	ServiceAdmitted:     "service_admitted",
	ServiceShed:         "service_shed",
	ServiceP99:          "service_p99_ms",
	ServiceViolation:    "service_violation",
	ServiceBatch:        "service_batch",
	ServiceGPUShare:     "service_gpu_share",
	ServiceSwappedMB:    "service_swapped_mb",
	ServicePaused:       "service_paused",
	ClassQPS:            "class_qps",
	ClassShed:           "class_shed",
	ClassViolation:      "class_violation",
	FleetSMUtil:         "fleet_sm_util",
	FleetMemUtil:        "fleet_mem_util",
	FleetDownDevices:    "fleet_down_devices",
	FleetQueueDepth:     "fleet_queue_depth",
	FleetMemPressure:    "fleet_mem_pressure",
	EngineWindowMs:      "engine_window_ms",
	EngineDrainMs:       "engine_drain_ms",
	EngineMergeMs:       "engine_merge_ms",
	EngineApplyMs:       "engine_apply_ms",
	EngineMail:          "engine_mail",
	EngineLaneImbalance: "engine_lane_imbalance",
	EngineHeapBytes:     "engine_heap_bytes",
	EngineGCCycles:      "engine_gc_cycles",
	EngineHelperLanes:   "engine_helper_lanes",
	EngineStepWaitMs:    "engine_step_wait_ms",
}

// String returns the wire name.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return "unknown"
}

// Profile reports whether the kind is an engine self-profiling signal:
// wall-clock (or runtime-state) measurements excluded from Fingerprint
// and from every determinism contract.
func (k Kind) Profile() bool { return k >= EngineWindowMs && k < kindCount }

// Workload reports whether the kind is a pure function of the
// synthesized workload and static configuration (offered QPS, the
// admission-control shed derived from it, and the injected fault
// schedule). Workload kinds do not depend on any measurement, which
// makes them the strongest determinism class.
func (k Kind) Workload() bool {
	switch k {
	case ServiceQPS, ServiceAdmitted, ServiceShed, ClassQPS, ClassShed, FleetDownDevices:
		return true
	}
	return false
}

// Kinds lists every known kind in taxonomy order.
func Kinds() []Kind {
	out := make([]Kind, 0, kindCount-1)
	for k := Kind(1); k < kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKind resolves a wire name.
func ParseKind(s string) (Kind, error) {
	for k := Kind(1); k < kindCount; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return KindUnknown, fmt.Errorf("timeline: unknown kind %q", s)
}

// Bucket is one aggregated interval of a series: at raw resolution a
// single sample (Count 1, Min = Max = Sum), at coarser levels the
// merge of Fanout child buckets.
type Bucket struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Mean returns Sum/Count (0 for an empty bucket).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// absorb merges o (which follows b in time) into b.
func (b *Bucket) absorb(o Bucket) {
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
	b.Sum += o.Sum
	b.Count += o.Count
	b.End = o.End
}

// point is one raw sample. The raw level stores points, a third of a
// Bucket's size, and exports each as a one-sample Bucket.
type point struct{ t, v float64 }

func (p point) bucket() Bucket {
	return Bucket{Start: p.t, End: p.t, Min: p.v, Max: p.v, Sum: p.v, Count: 1}
}

// ring is a fixed-capacity ring. It grows by append until the cap,
// then overwrites the oldest entry.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest retained entry once full
}

func (r *ring[T]) push(x T, cap_ int) {
	if len(r.buf) < cap_ {
		r.buf = append(r.buf, x)
		return
	}
	r.buf[r.head] = x
	r.head = (r.head + 1) % len(r.buf)
}

func (r *ring[T]) len() int { return len(r.buf) }

// at returns the i-th retained entry, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// tier is one downsampled level: a ring of completed buckets plus the
// partially filled bucket still accumulating children.
type tier struct {
	ring    ring[Bucket]
	pending Bucket
	kids    int
}

// Series is a live handle to one (Kind, scope) series. Handles are
// resolved once (Store.Series) and cached by call sites; Add on a nil
// handle is a no-op, matching the nil-Store contract.
type Series struct {
	st    *Store
	kind  Kind
	scope string
	total int64
	raw   ring[point]
	tiers []tier
}

// Add records one sample. Sample times must be non-decreasing per
// series (the simulated clock guarantees it); Add is safe against
// concurrent readers of the owning store.
func (sr *Series) Add(t, v float64) {
	if sr == nil {
		return
	}
	st := sr.st
	st.mu.Lock()
	sr.add(t, v)
	st.note(sr, t, v)
	st.mu.Unlock()
}

// Entry is one series' sample in a batch written by Store.AddAll.
type Entry struct {
	Series *Series
	Value  float64
}

// AddAll records one sample per entry at time t, in entry order, under
// one lock acquisition. It is equivalent to calling Add on each entry,
// and is the form for a writer that records many series per window.
func (s *Store) AddAll(t float64, es []Entry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, e := range es {
		e.Series.add(t, e.Value)
		s.note(e.Series, t, e.Value)
	}
	s.mu.Unlock()
}

// add appends under the store lock.
func (sr *Series) add(t, v float64) {
	sr.total++
	p := point{t, v}
	sr.raw.push(p, sr.st.cfg.Cap)
	b := p.bucket()
	for i := range sr.tiers {
		tr := &sr.tiers[i]
		if tr.kids == 0 {
			tr.pending = b
		} else {
			tr.pending.absorb(b)
		}
		tr.kids++
		if tr.kids < sr.st.cfg.Fanout {
			return
		}
		b = tr.pending
		tr.kids = 0
		tr.ring.push(b, sr.st.cfg.Cap)
	}
}

// Sample is one live-stream record for the /watch SSE feed: a raw
// sample stamped with a store-wide monotonic sequence number.
type Sample struct {
	Seq   uint64  `json:"seq"`
	Kind  string  `json:"kind"`
	Scope string  `json:"scope,omitempty"`
	Time  float64 `json:"time"`
	Value float64 `json:"value"`
}

// Config sizes a store. The zero value of any field selects its
// default.
type Config struct {
	// Cap bounds every level's ring (buckets); default 4096.
	Cap int
	// Levels is the tier count including raw; default 3. With Fanout 8
	// and 1 s windows, three levels retain ~1.1 h raw, ~9 h at 8 s, and
	// ~3 days at 64 s resolution under the default Cap.
	Levels int
	// Fanout is how many finer buckets merge into one coarser bucket;
	// default 8.
	Fanout int
	// Recent bounds the live-stream sample ring consumed by Since (the
	// /watch SSE backlog); default 1024.
	Recent int
}

// Defaults returns the default configuration.
func Defaults() Config { return Config{Cap: 4096, Levels: 3, Fanout: 8, Recent: 1024} }

func (c Config) normalized() Config {
	d := Defaults()
	if c.Cap <= 0 {
		c.Cap = d.Cap
	}
	if c.Levels <= 0 {
		c.Levels = d.Levels
	}
	if c.Fanout <= 1 {
		c.Fanout = d.Fanout
	}
	if c.Recent <= 0 {
		c.Recent = d.Recent
	}
	return c
}

type key struct {
	kind  Kind
	scope string
}

// Store is the multi-resolution series store. A nil *Store is a valid
// disabled store: Series returns a nil handle and every read reports
// empty.
type Store struct {
	mu     sync.Mutex
	cfg    Config
	series map[key]*Series
	order  []*Series

	recent []liveRec // live-stream ring, len == cfg.Recent
	seq    uint64    // samples ever noted; recent holds the last len(recent)
}

// liveRec is one live-stream ring entry. It keeps the series handle
// rather than its names, so the write stays three words; Since builds
// the Sample on read.
type liveRec struct {
	sr   *Series
	t, v float64
}

// New returns an empty store.
func New(cfg Config) *Store {
	cfg = cfg.normalized()
	return &Store{
		cfg:    cfg,
		series: make(map[key]*Series),
		recent: make([]liveRec, cfg.Recent),
	}
}

// Series resolves (and creates on first use) the handle for one
// (kind, scope) series. Nil store → nil handle.
func (s *Store) Series(kind Kind, scope string) *Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{kind, scope}
	if sr, ok := s.series[k]; ok {
		return sr
	}
	sr := &Series{st: s, kind: kind, scope: scope, tiers: make([]tier, s.cfg.Levels-1)}
	s.series[k] = sr
	s.order = append(s.order, sr)
	return sr
}

// note appends to the live-stream ring. Caller holds s.mu.
func (s *Store) note(sr *Series, t, v float64) {
	s.recent[s.seq%uint64(len(s.recent))] = liveRec{sr: sr, t: t, v: v}
	s.seq++
}

// Seq returns the sequence number of the newest sample (0 when empty).
func (s *Store) Seq() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Since appends to buf every retained sample with Seq > after, oldest
// first, and returns the result. Samples older than the Recent ring
// are gone; callers track the last Seq they saw and tolerate gaps.
func (s *Store) Since(after uint64, buf []Sample) []Sample {
	if s == nil {
		return buf
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq <= after {
		return buf
	}
	first := after + 1
	if s.seq > uint64(len(s.recent)) && first <= s.seq-uint64(len(s.recent)) {
		first = s.seq - uint64(len(s.recent)) + 1
	}
	for q := first; q <= s.seq; q++ {
		r := s.recent[(q-1)%uint64(len(s.recent))]
		buf = append(buf, Sample{Seq: q, Kind: r.sr.kind.String(), Scope: r.sr.scope, Time: r.t, Value: r.v})
	}
	return buf
}

// Timeline is the exported snapshot of one series: the levels from raw
// (stride 1) to coarsest, each a run of buckets oldest-first. This is
// the type carried by cluster.Result.Timelines and written by
// WriteNDJSON.
type Timeline struct {
	Kind   string  `json:"kind"`
	Scope  string  `json:"scope,omitempty"`
	Levels []Level `json:"levels"`
}

// Level is one resolution tier of an exported series.
type Level struct {
	// Stride is the number of raw samples per bucket (Fanout^i).
	Stride  int      `json:"stride"`
	Buckets []Bucket `json:"buckets"`
}

// KeyInfo describes one live series for index listings.
type KeyInfo struct {
	Kind    string `json:"kind"`
	Scope   string `json:"scope,omitempty"`
	Samples int64  `json:"samples"`
}

// Keys lists the live series sorted by (kind, scope).
func (s *Store) Keys() []KeyInfo {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]KeyInfo, 0, len(s.order))
	for _, sr := range s.order {
		if sr.total == 0 {
			continue
		}
		out = append(out, KeyInfo{Kind: sr.kind.String(), Scope: sr.scope, Samples: sr.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Scope < out[j].Scope
	})
	return out
}

// Snapshot exports every recorded series sorted by (kind, scope).
// withProfile false drops the engine self-profiling series — the
// deterministic subset hashed by Fingerprint. Tiers include their
// partially filled pending bucket, so a snapshot loses nothing to the
// cascade. Series obtained from Series() but never written (e.g. a
// service whose conditional kinds never fired) are omitted, as in
// Keys().
func (s *Store) Snapshot(withProfile bool) []Timeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Timeline, 0, len(s.order))
	for _, sr := range s.order {
		if !withProfile && sr.kind.Profile() {
			continue
		}
		if sr.total == 0 {
			continue
		}
		out = append(out, sr.export(s.cfg.Fanout))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Scope < out[j].Scope
	})
	return out
}

// export builds the snapshot of one series. Caller holds the store
// lock.
func (sr *Series) export(fanout int) Timeline {
	tl := Timeline{Kind: sr.kind.String(), Scope: sr.scope}
	lv := Level{Stride: 1, Buckets: make([]Bucket, 0, sr.raw.len())}
	for i := 0; i < sr.raw.len(); i++ {
		lv.Buckets = append(lv.Buckets, sr.raw.at(i).bucket())
	}
	tl.Levels = append(tl.Levels, lv)
	stride := 1
	for ti := range sr.tiers {
		stride *= fanout
		tr := &sr.tiers[ti]
		lv := Level{Stride: stride, Buckets: make([]Bucket, 0, tr.ring.len()+1)}
		for i := 0; i < tr.ring.len(); i++ {
			lv.Buckets = append(lv.Buckets, tr.ring.at(i))
		}
		if tr.kids > 0 {
			lv.Buckets = append(lv.Buckets, tr.pending)
		}
		tl.Levels = append(tl.Levels, lv)
	}
	return tl
}

// Range returns the buckets of the finest level that still covers
// from (raw first; coarser tiers retain older history after raw
// eviction), filtered to [from, to]. ok is false when the series does
// not exist or holds no buckets in range.
func (s *Store) Range(kind Kind, scope string, from, to float64) (Level, bool) {
	if s == nil {
		return Level{}, false
	}
	if to <= 0 {
		to = math.Inf(1)
	}
	s.mu.Lock()
	sr, ok := s.series[key{kind, scope}]
	if !ok {
		s.mu.Unlock()
		return Level{}, false
	}
	snap := sr.export(s.cfg.Fanout)
	s.mu.Unlock()
	pick := -1
	for i, lv := range snap.Levels {
		if len(lv.Buckets) == 0 {
			continue
		}
		if pick < 0 {
			pick = i // fall back to the coarsest non-empty level
		}
		if lv.Buckets[0].Start <= from {
			pick = i
			break
		}
	}
	if pick < 0 {
		return Level{}, false
	}
	lv := snap.Levels[pick]
	kept := lv.Buckets[:0]
	for _, b := range lv.Buckets {
		if b.End < from || b.Start > to {
			continue
		}
		kept = append(kept, b)
	}
	lv.Buckets = kept
	return lv, len(lv.Buckets) > 0
}

// Resample returns res evenly spaced (time, value) points of the
// series' bucket-mean step function over [from, to], built on
// stats.TimeSeries — the one shared downsampling implementation. A
// zero to means "through the newest sample".
func (s *Store) Resample(kind Kind, scope string, from, to float64, res int) (times, values []float64, ok bool) {
	lv, ok := s.Range(kind, scope, from, to)
	if !ok || res <= 0 {
		return nil, nil, false
	}
	ts := stats.NewTimeSeries()
	last := from
	for _, b := range lv.Buckets {
		if err := ts.Add(b.Start, b.Mean()); err != nil {
			continue
		}
		if b.End > last {
			last = b.End
		}
	}
	if to <= 0 || math.IsInf(to, 1) {
		to = last
	}
	if to <= from {
		to = from + 1
	}
	times, values = ts.Downsample(from, to, res)
	return times, values, true
}

// WriteNDJSON writes one JSON document per series (newline-delimited),
// in the given order. Pair with Store.Snapshot for a live store or
// with Result.Timelines for a finished run.
func WriteNDJSON(w io.Writer, tls []Timeline) error {
	enc := json.NewEncoder(w)
	for _, tl := range tls {
		if err := enc.Encode(tl); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint hashes the deterministic subset of the given snapshot —
// every series whose kind is not Profile(), in (kind, scope) order —
// and returns the hex SHA-256. Two runs with identical workloads and
// identical engine universes produce identical fingerprints for any
// lane or worker count.
func Fingerprint(tls []Timeline) string {
	det := make([]Timeline, 0, len(tls))
	for _, tl := range tls {
		if k, err := ParseKind(tl.Kind); err == nil && k.Profile() {
			continue
		}
		det = append(det, tl)
	}
	sort.Slice(det, func(i, j int) bool {
		if det[i].Kind != det[j].Kind {
			return det[i].Kind < det[j].Kind
		}
		return det[i].Scope < det[j].Scope
	})
	h := sha256.New()
	_ = WriteNDJSON(h, det)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint hashes the store's deterministic series.
func (s *Store) Fingerprint() string { return Fingerprint(s.Snapshot(false)) }
