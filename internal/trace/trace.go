// Package trace generates the workload arrival processes of §7.1:
// fluctuating inference QPS with inflection points (Fig. 1a), Poisson
// request streams with a 5 ms mean inter-arrival, bursty QPS episodes
// (Fig. 16), and a Microsoft-Philly-like training-task arrival trace
// with size classes drawn from Tab. 3's fractions.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mudi/internal/model"
	"mudi/internal/xrand"
)

// QPSTrace produces the request arrival rate of one inference service
// over simulated time.
type QPSTrace interface {
	// At returns the arrival rate (req/s) at time t (seconds).
	At(t float64) float64
}

// ConstantQPS is a flat-rate trace.
type ConstantQPS float64

// At implements QPSTrace.
func (c ConstantQPS) At(float64) float64 { return float64(c) }

// FluctuatingQPS mimics the Alibaba services of Fig. 1a: a mean-
// reverting random walk with occasional inflection points where the
// level shifts, and no periodic structure.
type FluctuatingQPS struct {
	base     float64
	rng      *xrand.Rand
	interval float64 // walk step interval in seconds

	// Lazily extended piecewise-constant level track.
	times  []float64
	levels []float64
	cur    int // segment of the last At: times[cur] <= t < times[cur+1]
}

// NewFluctuatingQPS returns a trace around the given base rate. The
// walk wanders within roughly ±40% of base and occasionally jumps.
func NewFluctuatingQPS(base float64, rng *xrand.Rand) *FluctuatingQPS {
	return &FluctuatingQPS{
		base:     base,
		rng:      rng,
		interval: 10,
		times:    []float64{0},
		levels:   []float64{base},
	}
}

// At implements QPSTrace. Calls may go backwards in time; the track is
// deterministic once generated. The answer is levels[i] for the largest
// i with times[i] <= t. The simulator asks once per window with t
// moving forward, so At first tries the segment of the previous call
// and the one after it, and binary-searches only on a jump (or NaN,
// which no comparison accepts).
func (f *FluctuatingQPS) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	for f.times[len(f.times)-1] < t {
		f.extend()
	}
	last := len(f.times) - 1
	switch i := f.cur; {
	case f.times[i] <= t && (i == last || t < f.times[i+1]):
	case i < last && f.times[i+1] <= t && (i+1 == last || t < f.times[i+2]):
		f.cur = i + 1
	default:
		idx := sort.SearchFloat64s(f.times, t)
		if idx == len(f.times) || f.times[idx] > t {
			idx--
		}
		f.cur = idx
	}
	return f.levels[f.cur]
}

func (f *FluctuatingQPS) extend() {
	last := f.levels[len(f.levels)-1]
	next := last + f.rng.Normal(0, 0.05*f.base)
	// Mean reversion.
	next += 0.1 * (f.base - next)
	// Occasional inflection: a jump to a new regime (Fig. 1a's
	// "occasional inflection points").
	if f.rng.Float64() < 0.02 {
		next = f.base * f.rng.Range(0.6, 1.4)
	}
	next = clamp(next, 0.5*f.base, 1.6*f.base)
	f.times = append(f.times, f.times[len(f.times)-1]+f.interval)
	f.levels = append(f.levels, next)
}

// BurstyQPS overlays burst episodes on an inner trace: between Start
// and End the rate is multiplied by Factor (the Fig. 16 case study
// bursts ResNet50 to 3× at t=100 s and recovers at t=200 s). It is the
// one way a trace is multiplied over time: an episode over [0, +Inf)
// is a constant load factor (the 2×/3×/4× sweeps of Fig. 15), and a
// failover shift is one episode per side (FailoverShift).
type BurstyQPS struct {
	inner QPSTrace
	sched *BurstSchedule
}

// NewBurstyQPS overlays a burst schedule on inner. One schedule may be
// shared by any number of traces.
func NewBurstyQPS(inner QPSTrace, sched *BurstSchedule) BurstyQPS {
	return BurstyQPS{inner: inner, sched: sched}
}

// Burst is one multiplicative episode.
type Burst struct {
	Start, End float64 // seconds
	Factor     float64
}

// At implements QPSTrace.
func (b BurstyQPS) At(t float64) float64 {
	return b.sched.apply(t, b.inner.At(t))
}

// BurstSchedule indexes a burst list for BurstyQPS. A rate at t is the
// inner rate multiplied, one factor at a time in list order, by every
// burst with Start ≤ t < End. Coverage only changes at a Start or End,
// so the schedule keeps the sorted distinct edges and, for each segment
// between two adjacent edges, the covering factors in list order: a
// lookup is a binary search plus the same multiplies a scan of the
// list would do, so the result has the same bits.
type BurstSchedule struct {
	edges []float64 // sorted distinct Start/End values of non-empty bursts
	// Segment i is [edges[i], edges[i+1]); its factors are
	// factors[offs[i]:offs[i+1]].
	offs    []int
	factors []float64
}

// NewBurstSchedule indexes bursts. The schedule keeps no reference to
// the slice.
func NewBurstSchedule(bursts []Burst) *BurstSchedule {
	s := &BurstSchedule{}
	for _, b := range bursts {
		// A burst with !(Start < End) — empty, reversed or NaN — covers
		// no t, so it contributes no edge.
		if b.Start < b.End {
			s.edges = append(s.edges, b.Start, b.End)
		}
	}
	sort.Float64s(s.edges)
	s.edges = slices.Compact(s.edges)
	if len(s.edges) == 0 {
		return s
	}
	s.offs = make([]int, len(s.edges))
	for i, lo := range s.edges[:len(s.edges)-1] {
		hi := s.edges[i+1]
		for _, b := range bursts {
			if b.Start <= lo && hi <= b.End {
				s.factors = append(s.factors, b.Factor)
			}
		}
		s.offs[i+1] = len(s.factors)
	}
	return s
}

// apply multiplies v by the factors of the bursts covering t.
func (s *BurstSchedule) apply(t, v float64) float64 {
	// i is the number of edges ≤ t (len(edges) for NaN t), so t lies
	// in segment i-1 when that segment exists.
	i := sort.Search(len(s.edges), func(k int) bool { return s.edges[k] > t })
	if i == 0 || i == len(s.edges) {
		return v
	}
	for _, f := range s.factors[s.offs[i-1]:s.offs[i]] {
		v *= f
	}
	return v
}

// PoissonArrivals generates request arrival timestamps over [0, dur)
// for a (possibly time-varying) rate trace, by thinning against the
// trace's maximum rate over the window.
func PoissonArrivals(q QPSTrace, dur float64, rng *xrand.Rand) []float64 {
	if dur <= 0 {
		return nil
	}
	// Find a rate bound by probing the trace.
	maxRate := 0.0
	for t := 0.0; t < dur; t += dur / 256 {
		if r := q.At(t); r > maxRate {
			maxRate = r
		}
	}
	if maxRate <= 0 {
		return nil
	}
	maxRate *= 1.05
	var out []float64
	t := 0.0
	for {
		t += rng.Exp(maxRate)
		if t >= dur {
			return out
		}
		if rng.Float64() <= q.At(t)/maxRate {
			out = append(out, t)
		}
	}
}

// TaskArrival is one training-task submission.
type TaskArrival struct {
	ID      int
	At      float64 // submission time in seconds
	Task    model.TrainingTask
	Iters   int // task length in mini-batches (scaled per run)
	GPUsReq int // requested GPU count (always 1 in this reproduction)

	// Cohort names the arrival population this submission came from
	// (trace-v2 cohort generators); empty for legacy generators. When
	// set, it becomes the submitting user for fair-share queueing.
	Cohort string
	// Priority overrides the size-class-derived queue priority when
	// non-zero (cohort SLO mixes express urgency tiers this way).
	Priority int
	// Class is the submission's SLO class (cohort-assigned); ClassUnset
	// for legacy generators. When set and Priority is zero, generators
	// derive Priority from the class rank so classed cohorts order
	// correctly under the priority queue policy without extra wiring.
	Class model.SLOClass
}

// PhillyConfig shapes the training arrival trace.
type PhillyConfig struct {
	Count      int     // number of tasks to generate
	MeanGapSec float64 // mean inter-arrival at daytime intensity
	ScaleIters float64 // multiplier on catalog TotalIters (shrinks experiments)
	Seed       uint64
}

// PhillyTrace generates a training-task arrival sequence following the
// Microsoft Philly trace's character: bursty submissions with a strong
// diurnal rhythm, task mix drawn from Tab. 3's fractions. The paper
// replays this trace directly on the physical cluster and scales it by
// 80× for the 1000-GPU simulation; use MeanGapSec to set intensity.
func PhillyTrace(cfg PhillyConfig) ([]TaskArrival, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("trace: task count %d", cfg.Count)
	}
	if cfg.MeanGapSec <= 0 {
		cfg.MeanGapSec = 30
	}
	if cfg.ScaleIters <= 0 {
		cfg.ScaleIters = 1
	}
	rng := xrand.New(cfg.Seed).ForkString("philly")
	catalog := model.Tasks()
	weights := make([]float64, len(catalog))
	for i, task := range catalog {
		weights[i] = task.Frac
	}
	out := make([]TaskArrival, 0, cfg.Count)
	t := 0.0
	const day = 86400.0
	for i := 0; i < cfg.Count; i++ {
		// Diurnal intensity: daytime (9h–21h of each simulated day)
		// submits ~3× more often than night.
		hour := math.Mod(t, day) / 3600
		gap := cfg.MeanGapSec
		if hour < 9 || hour >= 21 {
			gap *= 3
		}
		// Bursts: occasionally a batch of submissions lands together.
		if rng.Float64() < 0.15 {
			gap *= 0.1
		}
		t += rng.Exp(1 / gap)
		task := catalog[rng.Choice(weights)]
		iters := int(float64(task.TotalIters) * cfg.ScaleIters * rng.Range(0.7, 1.3))
		if iters < 1 {
			iters = 1
		}
		out = append(out, TaskArrival{ID: i, At: t, Task: task, Iters: iters, GPUsReq: 1})
	}
	return out, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
