package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"mudi"
)

// rep is one repetition: a fresh System, then every simulation of the
// workload in order. A traced repetition runs the policy behind the
// layer wrappers and turns on the engine's self-profile.
type rep struct {
	Traced        bool    `json:"traced"`
	SetupS        float64 `json:"setup_s"`
	WallS         float64 `json:"wall_s"`
	DeviceWindows int64   `json:"device_windows"`
	Allocs        uint64  `json:"allocs"`
	HeapPeakBytes uint64  `json:"live_heap_peak_bytes"`
	RSSPeakBytes  uint64  `json:"rss_peak_bytes"` // of the process so far
	GCCPUS        float64 `json:"gc_cpu_s"`
	GCCycles      uint64  `json:"gc_cycles"`

	Submitted int      `json:"submitted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// SummarySHA256 hashes every simulation's Result.Summary() in order.
	SummarySHA256 string `json:"summary_sha256"`

	Events          int64 `json:"events"`
	Spans           int   `json:"spans"`
	TimelineSamples int64 `json:"timeline_samples"`

	// The first simulation of every workload is Mudi's.
	SLOViolationPct float64 `json:"slo_violation_pct"`
	MeanCTS         float64 `json:"mean_ct_s"`
	SMUtilPct       float64 `json:"sm_util_pct"`

	Swaps          int     `json:"swaps"`
	transferMsSum  float64 // AvgTransferMs weighted by swaps
	ShedWindows    int     `json:"shed_windows"`
	DeviceFailures int     `json:"device_failures"`
	MeasureRetries int     `json:"measure_retries"`
	FailedSpinUps  int     `json:"failed_spinups"`
	Reconfigs      int     `json:"reconfigs"`
	PausedEpisodes int     `json:"paused_episodes"`

	placementMs []float64
	layers      *layerStats
	engine      engineProfile
}

func runRep(w workload, seed uint64, sz size, traced bool) (*rep, error) {
	r := &rep{Traced: traced}
	start := time.Now()
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: testbedSeed})
	if err != nil {
		return nil, err
	}
	r.SetupS = time.Since(start).Seconds()
	sims, err := w.build(sys, seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	if traced {
		r.layers = &layerStats{}
	}
	runtime.GC()
	heap := startHeapSampler()
	err = r.simulate(sys, sims)
	r.HeapPeakBytes = heap.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.RSSPeakBytes = uint64(ru.Maxrss) * 1024 // Linux reports kilobytes
	return r, nil
}

// simulate runs the repetition's simulations in order and records
// their results.
func (r *rep) simulate(sys *mudi.System, sims []sim) error {
	h := sha256.New()
	cr := newCounterReader()
	for i, s := range sims {
		opts := s.opts
		var events atomic.Int64
		if opts.Observe {
			opts.Observer = func(mudi.Event) { events.Add(1) }
		}
		if r.Traced {
			p := opts.Policy
			if p == nil {
				p = sys.Policy()
			}
			opts.Policy = wrapPolicy(p, r.layers)
			opts.Timelines = true
		}
		r.Submitted += s.tasks
		before := cr.read()
		t0 := time.Now()
		res, err := sys.Simulate(opts)
		r.WallS += time.Since(t0).Seconds()
		d := cr.read().since(before)
		r.Allocs += d.allocs
		r.GCCPUS += d.gcCPU
		r.GCCycles += d.gcCycles
		if err != nil {
			r.Failed += s.tasks
			r.Errors = append(r.Errors, err.Error())
			fmt.Fprintf(h, "error=%v\n", err)
			continue
		}
		r.Failed += s.tasks - res.Completed
		h.Write([]byte(res.Summary()))
		r.DeviceWindows += int64(opts.Devices) * int64(res.SMUtil.Len())
		r.Events += events.Load()
		r.Spans += len(res.Spans)
		if res.Timelines != nil {
			if err := r.engine.add(res.Timelines); err != nil {
				return err
			}
		}
		if i == 0 {
			r.SLOViolationPct = 100 * res.MeanSLOViolation()
			r.MeanCTS = res.MeanCT()
			r.SMUtilPct = 100 * res.SMUtil.TimeAverage(0, res.Makespan)
		}
		r.Swaps += res.SwapEvents
		r.transferMsSum += res.AvgTransferMs * float64(res.SwapEvents)
		r.ShedWindows += res.ShedWindows
		r.DeviceFailures += res.DeviceFailures
		r.MeasureRetries += res.MeasureRetries
		r.FailedSpinUps += res.FailedSpinUps
		r.Reconfigs += res.Reconfigs
		r.PausedEpisodes += res.PausedEpisodes
		r.placementMs = append(r.placementMs, res.PlacementOverheadMs...)
	}
	r.TimelineSamples = r.engine.samples
	r.SummarySHA256 = hex.EncodeToString(h.Sum(nil))
	return nil
}

// stat is one metric's value with the spread behind it.
type stat struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Reps  []float64 `json:"reps"`
}

// run is one invocation on one workload: its repetitions, the checks on
// their outputs, and the metrics.
type run struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Trace     int             `json:"trace"`
	Correct   bool            `json:"correct"`
	Problems  []string        `json:"problems,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Reps      []*rep          `json:"reps"`
	Metrics   map[string]stat `json:"metrics"`
}

// runWorkload repeats the workload for at most seconds, stopping before
// a repetition that would not fit by the length of the one before, but
// running at least minReps. With trace 1 the repetitions alternate
// untraced and traced, and an untraced-traced pair is the unit that
// must fit. A small repetition runs first and is dropped: the first
// NewSystem of a process runs on a cold heap and takes half as long
// again.
func runWorkload(w workload, seed uint64, seconds float64, trace int, sz size, minReps int) (*run, error) {
	out := &run{Workload: w.name, Seed: seed, Trace: trace}
	if _, err := runRep(w, seed, small, false); err != nil {
		return nil, err
	}
	start := time.Now()
	unitStart := start
	for i := 0; ; i++ {
		traced := trace == 1 && i%2 == 1
		r, err := runRep(w, seed, sz, traced)
		if err != nil {
			return nil, err
		}
		out.Reps = append(out.Reps, r)
		out.Attempted += r.Submitted
		out.Failed += r.Failed
		if trace == 1 && !traced {
			continue
		}
		unit := time.Since(unitStart)
		unitStart = time.Now()
		if len(out.Reps) >= minReps && (time.Since(start)+unit).Seconds() > seconds {
			break
		}
	}
	out.check()
	if trace == 0 {
		out.Metrics = out.endToEnd()
	} else {
		out.Metrics = out.perLayer()
	}
	for _, d := range defs(trace) {
		s, ok := out.Metrics[d.name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			out.problem("%s: metric %s is %v (computed: %v)", w.name, d.name, s.Value, ok)
		}
	}
	out.Correct = len(out.Problems) == 0
	return out, nil
}

func (o *run) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// check is the correctness gate. Every repetition, traced or not, must
// produce the same Summary() hash and, where the workload observes, the
// same event and span counts: that is what shows the wrappers passive.
// Every submitted task must complete.
func (o *run) check() {
	first := o.Reps[0]
	for i, r := range o.Reps {
		if r.SummarySHA256 != first.SummarySHA256 {
			o.problem("%s: rep %d (traced=%v) Summary hash %s differs from rep 0's %s",
				o.Workload, i, r.Traced, r.SummarySHA256, first.SummarySHA256)
		}
		if r.Events != first.Events || r.Spans != first.Spans {
			o.problem("%s: rep %d (traced=%v) saw %d events and %d spans, rep 0 saw %d and %d",
				o.Workload, i, r.Traced, r.Events, r.Spans, first.Events, first.Spans)
		}
		if r.Failed > 0 {
			o.problem("%s: rep %d: %d of %d submitted tasks failed %v",
				o.Workload, i, r.Failed, r.Submitted, r.Errors)
		}
	}
}

// collect gathers one value per repetition of the chosen kind.
func (o *run) collect(traced bool, f func(*rep) float64) []float64 {
	var vs []float64
	for _, r := range o.Reps {
		if r.Traced == traced {
			vs = append(vs, f(r))
		}
	}
	return vs
}

func newStat(unit string, vs []float64) stat {
	q1, q3 := quartiles(vs)
	return stat{Value: median(vs), Unit: unit, Q1: q1, Q3: q3, Reps: vs}
}

func (o *run) endToEnd() map[string]stat {
	per := map[string]func(*rep) float64{
		"setup_s":       func(r *rep) float64 { return r.SetupS },
		"dw_per_s":      func(r *rep) float64 { return float64(r.DeviceWindows) / r.WallS },
		"allocs_per_dw": func(r *rep) float64 { return float64(r.Allocs) / float64(r.DeviceWindows) },
		"rss_peak_mb":   func(r *rep) float64 { return float64(r.RSSPeakBytes) / 1e6 },
	}
	out := make(map[string]stat, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = newStat(m.unit, o.collect(false, per[m.name]))
	}
	return out
}

func (o *run) perLayer() map[string]stat {
	untraced := map[string]func(*rep) float64{
		"gc.cpu_s":             func(r *rep) float64 { return r.GCCPUS },
		"gc.cycles":            func(r *rep) float64 { return float64(r.GCCycles) },
		"gc.live_heap_peak_mb": func(r *rep) float64 { return float64(r.HeapPeakBytes) / 1e6 },
		"host.wall_s":          func(r *rep) float64 { return r.WallS },
		"obs.events":           func(r *rep) float64 { return float64(r.Events) },
		"obs.spans":            func(r *rep) float64 { return float64(r.Spans) },
		"obs.timeline_samples": func(r *rep) float64 { return float64(r.TimelineSamples) },
	}
	ls := func(f func(*layerStats) float64) func(*rep) float64 {
		return func(r *rep) float64 { return f(r.layers) }
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	engineS := func(r *rep) float64 { return (r.engine.drainMs + r.engine.mergeMs + r.engine.applyMs) / 1e3 }
	traced := map[string]func(*rep) float64{
		"placement.calls":          ls(func(s *layerStats) float64 { return float64(s.placeCalls) }),
		"placement.views":          ls(func(s *layerStats) float64 { return float64(s.placeViews) }),
		"placement.views_per_call": ls(func(s *layerStats) float64 { return ratio(s.placeViews, s.placeCalls) }),
		"placement.ok_ratio":       ls(func(s *layerStats) float64 { return ratio(s.placeOK, s.placeCalls) }),
		"placement.policy_s":       ls(func(s *layerStats) float64 { return secs(s.placeNs) }),
		"placement.total_s":        func(r *rep) float64 { return sum(r.placementMs) / 1e3 },
		"placement.ms_p50":         func(r *rep) float64 { return median(r.placementMs) },
		"placement.ms_tail":        func(r *rep) float64 { v, _ := tail(r.placementMs); return v },
		"placement.ms_tail_pct":    func(r *rep) float64 { _, p := tail(r.placementMs); return p },
		"placement.ms_tail_n":      func(r *rep) float64 { return float64(len(r.placementMs)) },
		"learner.calls":            ls(func(s *layerStats) float64 { return float64(s.learnCalls) }),
		"learner.s":                ls(func(s *layerStats) float64 { return secs(s.learnNs) }),
		"tuner.calls":              ls(func(s *layerStats) float64 { return float64(s.tuneCalls) }),
		"tuner.s":                  ls(func(s *layerStats) float64 { return secs(s.tuneNs) }),
		"tuner.bo_iters":           ls(func(s *layerStats) float64 { return float64(s.boIters) }),
		"tuner.infeasible":         ls(func(s *layerStats) float64 { return float64(s.infeasible) }),
		"tuner.errors":             ls(func(s *layerStats) float64 { return float64(s.tuneErrs) }),
		"measure.calls":            ls(func(s *layerStats) float64 { return float64(s.measCalls) }),
		"measure.s":                ls(func(s *layerStats) float64 { return secs(s.measNs) }),
		"measure.errors":           ls(func(s *layerStats) float64 { return float64(s.measErrs) }),
		"engine.drain_s":           func(r *rep) float64 { return r.engine.drainMs / 1e3 },
		"engine.merge_s":           func(r *rep) float64 { return r.engine.mergeMs / 1e3 },
		"engine.apply_s":           func(r *rep) float64 { return r.engine.applyMs / 1e3 },
		"engine.global_s":          func(r *rep) float64 { return r.WallS - engineS(r) },
		"engine.barriers":          func(r *rep) float64 { return float64(r.engine.barriers) },
		"engine.mail":              func(r *rep) float64 { return r.engine.mail },
		"engine.lane_imbalance": func(r *rep) float64 {
			return r.engine.imbalance / math.Max(1, float64(r.engine.barriers))
		},
		"memmgr.swaps": func(r *rep) float64 { return float64(r.Swaps) },
		"memmgr.transfer_ms_mean": func(r *rep) float64 {
			return r.transferMsSum / math.Max(1, float64(r.Swaps))
		},
		"admission.shed_windows":  func(r *rep) float64 { return float64(r.ShedWindows) },
		"faults.device_failures":  func(r *rep) float64 { return float64(r.DeviceFailures) },
		"faults.measure_retries":  func(r *rep) float64 { return float64(r.MeasureRetries) },
		"faults.failed_spinups":   func(r *rep) float64 { return float64(r.FailedSpinUps) },
		"cluster.reconfigs":       func(r *rep) float64 { return float64(r.Reconfigs) },
		"cluster.paused_episodes": func(r *rep) float64 { return float64(r.PausedEpisodes) },
		"sim.slo_violation_pct":   func(r *rep) float64 { return r.SLOViolationPct },
		"sim.mean_ct_s":           func(r *rep) float64 { return r.MeanCTS },
		"sim.sm_util_pct":         func(r *rep) float64 { return r.SMUtilPct },
		"sim.device_windows":      func(r *rep) float64 { return float64(r.DeviceWindows) },
		"trace.wall_s":            func(r *rep) float64 { return r.WallS },
	}
	out := make(map[string]stat, len(perLayer))
	for _, m := range perLayer {
		switch {
		case untraced[m.name] != nil:
			out[m.name] = newStat(m.unit, o.collect(false, untraced[m.name]))
		case traced[m.name] != nil:
			out[m.name] = newStat(m.unit, o.collect(true, traced[m.name]))
		}
	}
	base := median(o.collect(false, func(r *rep) float64 { return r.WallS }))
	var over []float64
	for _, w := range o.collect(true, func(r *rep) float64 { return r.WallS }) {
		over = append(over, 100*(w/base-1))
	}
	out["trace.overhead_pct"] = newStat("%", over)
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
