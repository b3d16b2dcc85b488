package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports: the host cost of a
// simulation as its user sees it. Throughput and allocations are per
// device-window (one device simulated for one control window), the
// simulator's unit of work, so that seeds whose runs last longer still
// compare; wall time per run is a per-layer metric for that reason.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"dw_per_s", "dw/s", "higher"},
	{"allocs_per_dw", "allocs/dw", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer is what a traced run reports. Host times come from the
// wrappers and the engine's self-profile of the traced repetitions;
// gc.* and obs.* come from the untraced repetitions of the same run;
// sim.* and the simulated counts are deterministic for a seed.
var perLayer = []metricDef{
	{"placement.calls", "count", "lower"},
	{"placement.views", "count", "lower"},
	{"placement.views_per_call", "count", "lower"},
	{"placement.ok_ratio", "ratio", "higher"},
	{"placement.policy_s", "s", "lower"},
	{"placement.total_s", "s", "lower"},
	{"placement.ms_p50", "ms", "lower"},
	{"placement.ms_tail", "ms", "lower"},
	{"placement.ms_tail_pct", "%", "higher"},
	{"placement.ms_tail_n", "count", "higher"},
	{"learner.calls", "count", "lower"},
	{"learner.s", "s", "lower"},
	{"tuner.calls", "count", "lower"},
	{"tuner.s", "s", "lower"},
	{"tuner.bo_iters", "count", "lower"},
	{"tuner.infeasible", "count", "lower"},
	{"tuner.errors", "count", "lower"},
	{"measure.calls", "count", "lower"},
	{"measure.s", "s", "lower"},
	{"measure.errors", "count", "lower"},
	{"engine.drain_s", "s", "lower"},
	{"engine.merge_s", "s", "lower"},
	{"engine.apply_s", "s", "lower"},
	{"engine.global_s", "s", "lower"},
	{"engine.barriers", "count", "lower"},
	{"engine.mail", "count", "lower"},
	{"engine.lane_imbalance", "events", "lower"},
	{"gc.cpu_s", "s", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.live_heap_peak_mb", "MB", "lower"},
	{"obs.events", "count", "lower"},
	{"obs.spans", "count", "lower"},
	{"obs.timeline_samples", "count", "lower"},
	{"memmgr.swaps", "count", "lower"},
	{"memmgr.transfer_ms_mean", "ms", "lower"},
	{"admission.shed_windows", "count", "lower"},
	{"faults.device_failures", "count", "lower"},
	{"faults.measure_retries", "count", "lower"},
	{"faults.failed_spinups", "count", "lower"},
	{"cluster.reconfigs", "count", "lower"},
	{"cluster.paused_episodes", "count", "lower"},
	{"sim.slo_violation_pct", "%", "lower"},
	{"sim.mean_ct_s", "s", "lower"},
	{"sim.sm_util_pct", "%", "higher"},
	{"sim.device_windows", "count", "higher"},
	{"host.wall_s", "s", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// median returns the median of vs (NaN when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(vs, n=4), the "exclusive" method.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// tail returns the highest of p99, p95, p90, p75 that has at least ten
// samples beyond it, falling back to the median, with the percentile
// it chose. Percentiles are nearest-rank.
func tail(vs []float64) (value, pct float64) {
	s := sorted(vs)
	n := len(s)
	if n == 0 {
		return 0, 50
	}
	rank := func(p float64) int { return int(math.Ceil(p / 100 * float64(n))) }
	for _, p := range []float64{99, 95, 90, 75} {
		if r := rank(p); n-r >= 10 {
			return s[r-1], p
		}
	}
	r := rank(50)
	if r < 1 {
		r = 1
	}
	return s[r-1], 50
}
