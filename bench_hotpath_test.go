package mudi

// Hot-path micro-benchmarks behind `make bench-hotpath`: they isolate
// the simulator inner loops the end-to-end alloc budget
// (BenchmarkSimObsOff, BENCH_hotpath.json) depends on — GP posterior
// updates, percentile extraction, oracle curve construction, burst
// schedule lookups, the request-level serving loop, Mudi's device
// selection, the online learner's refits and model selection, and a
// warm Mudi build. The AllocsPerRun regression tests in internal/gp,
// internal/stats and internal/core pin the steady states; these
// benchmarks track the constants.

import (
	"fmt"
	"math"
	"testing"

	"mudi/internal/core"
	"mudi/internal/gp"
	"mudi/internal/learn"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/serving"
	"mudi/internal/stats"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// BenchmarkHotpathGPObserve measures the incremental rank-append
// posterior update across a growing observation set — the per-tuning
// episode cost. One op = a fresh GP absorbing 24 observations.
func BenchmarkHotpathGPObserve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gp.New()
		for j := 0; j < 24; j++ {
			x := float64(j % 8)
			y := math.Sin(x) + 0.01*float64(j)
			if err := g.Observe(x+0.05*float64(j), y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHotpathGPPredict is the warm single-point posterior query —
// zero allocations once the scratch buffers have grown.
func BenchmarkHotpathGPPredict(b *testing.B) {
	g := gp.New()
	for j := 0; j < 16; j++ {
		if err := g.Observe(float64(j), math.Sin(float64(j))); err != nil {
			b.Fatal(err)
		}
	}
	g.Predict(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(2.5)
	}
}

// BenchmarkHotpathGPMinimize runs a full GP-LCB search over the tuner's
// 6-candidate batch space with a cheap objective, the shape of every
// retune episode.
func BenchmarkHotpathGPMinimize(b *testing.B) {
	candidates := []float64{0, 1, 2, 3, 4, 5} // log2 of the batch ladder
	obj := func(x float64) (float64, bool) {
		return (x - 3.3) * (x - 3.3), true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Minimize(candidates, obj, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathScratchP99 is the selection-based percentile on the
// reusable scratch — the per-window latency reduction. Compare with
// BenchmarkHotpathSortP99, the copy-and-sort path it replaced.
func BenchmarkHotpathScratchP99(b *testing.B) {
	xs := benchLatencies(4096)
	var sc stats.Scratch
	sc.P99(xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.P99(xs)
	}
}

func BenchmarkHotpathSortP99(b *testing.B) {
	xs := benchLatencies(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.Percentile(xs, 99)
	}
}

func benchLatencies(n int) []float64 {
	rng := xrand.New(42)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5 + 50*rng.Float64()
	}
	return xs
}

// refitSamples is the refit benchmarks' tie-free dataset: 60 rows of 7
// continuous features, so every row holds a distinct value of each.
func refitSamples() ([][]float64, []float64) {
	rng := xrand.New(9)
	const n, w = 60, 7
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, w)
		for j := range x[i] {
			x[i][j] = rng.Range(0, 4)
		}
		y[i] = rng.Range(0.5, 3)
	}
	return x, y
}

// predictorSamples is an Interference Predictor target's sample set:
// 40 co-locations × 6 batch sizes, 11 integer layer counts constant
// within a co-location (two constant overall) plus log2(batch), with
// each row's co-location as its cross-validation group.
func predictorSamples() (x [][]float64, y []float64, groups []string) {
	rng := xrand.New(9)
	for g := 0; g < 40; g++ {
		layers := make([]float64, 11)
		for j := range layers {
			if j < 9 {
				layers[j] = float64(rng.Intn(40))
			}
		}
		for batch := 4; batch <= 128; batch *= 2 {
			row := append(append([]float64(nil), layers...), math.Log2(float64(batch)))
			x = append(x, row)
			y = append(y, 1+0.05*layers[1]+0.3*row[11]+rng.Range(0, 0.4))
			groups = append(groups, fmt.Sprint(layers))
		}
	}
	return x, y, groups
}

// benchRefit refits a warm model on one dataset: the tree builder's
// scratch and node arena are amortized across fits, as in the
// cross-validation loop, which refits the same instance up to ~11
// times per new-workload observation.
func benchRefit(b *testing.B, m learn.Regressor, x [][]float64, y []float64) {
	if err := m.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathForestRefit is a random forest refit on an
// incremental-modeler-sized, tie-free dataset. Each tree's nodes scan
// the rank bins of the node's values, so with no ties a node's scan
// covers up to one bin per row (BenchmarkHotpathSelectModel has the
// tie-heavy shape).
func BenchmarkHotpathForestRefit(b *testing.B) {
	x, y := refitSamples()
	benchRefit(b, learn.NewForest(30, 1), x, y)
}

// BenchmarkHotpathGBRTRefit is a gradient-boosted trees refit on the
// same tie-free dataset as BenchmarkHotpathForestRefit: every node of
// its 60 rounds scans about one rank bin per row.
func BenchmarkHotpathGBRTRefit(b *testing.B) {
	x, y := refitSamples()
	benchRefit(b, learn.NewGBRT(60, 1), x, y)
}

// BenchmarkHotpathGBRTRefitPredictor is the refit the learner actually
// serves: gradient-boosted trees, the family that wins model selection
// for almost every predictor target, on predictor-shaped samples whose
// features hold few distinct values.
func BenchmarkHotpathGBRTRefitPredictor(b *testing.B) {
	x, y, _ := predictorSamples()
	benchRefit(b, learn.NewGBRT(60, 1), x, y)
}

// BenchmarkHotpathSelectModel is one model selection of an
// Interference Predictor target: cross-validation over all 240 rows of
// predictorSamples (10 leave-one-group-out folds), with the previous
// winner cross-validated first, as learn.Incremental does. That is
// about 5× the 36–56 rows an online learner holds in a 12-GPU run;
// BenchmarkHotpathIncrementalObserve has the online size.
func BenchmarkHotpathSelectModel(b *testing.B) {
	x, y, groups := predictorSamples()
	first, err := learn.SelectModelGrouped(x, y, groups, 1, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.SelectModelGrouped(x, y, groups, 1, first.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathIncrementalObserve is what one newly observed
// co-location costs a predictor target online: six AddGrouped calls,
// one per batch size, on a learner that holds the 36-row, 6-group
// offline grid. The fifth refits the incumbent family.
func BenchmarkHotpathIncrementalObserve(b *testing.B) {
	x, y, groups := predictorSamples()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := learn.NewIncremental(1)
		for j := 0; j < 36; j++ {
			inc.AddNoRefitGrouped(x[j], y[j], groups[j])
		}
		if err := inc.Select(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 36; j < 42; j++ {
			if _, err := inc.AddGrouped(x[j], y[j], groups[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHotpathOracleCurve times one direct co-location curve
// computation: the oracle keeps no memo, so every call derives the
// residents' idiosyncrasies and builds the curve afresh. Callers that
// repeat a question memoize it themselves — the cluster's window path
// keeps a per-device memo and asks only when a device's configuration
// changes.
func BenchmarkHotpathOracleCurve(b *testing.B) {
	o := perf.NewOracle(1)
	svc := model.Services()[0].Name
	coloc := model.ObservedTasks()[:2]
	if _, err := o.TrainColocCurve(svc, 64, coloc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.TrainColocCurve(svc, 64, coloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathMudiSelect1k is one warm Device Selector call over a
// 1024-device fleet of the six catalog services, each with no resident
// or one: twelve distinct (service, Ψ) keys. The predictor does not
// learn between calls, so every key's memo entry from the first call
// stays valid and only the Eq. 4 solve runs per device.
func BenchmarkHotpathMudiSelect1k(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	services := model.Services()
	tasks := model.ObservedTasks()
	views := make([]DeviceView, 1024)
	for i := range views {
		svc := services[i%len(services)]
		views[i] = DeviceView{
			ID: fmt.Sprintf("gpu%04d", i), ServiceName: svc.Name,
			SLOms: svc.SLOms, QPS: svc.BaseQPS, FreeShare: 0.5,
		}
		if (i/len(services))%2 == 1 {
			views[i].ResidentTasks = tasks[:1]
		}
	}
	policy := sys.Policy()
	task := tasks[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := policy.SelectDevice(task, views, nil); !ok {
			b.Fatal("no device selected")
		}
	}
}

// BenchmarkHotpathBuildMudiWarm is one Mudi build once the offline
// pipeline has run for its key: the first build trains, and each
// measured build, from a fresh oracle with the same seed, finds the
// trained state in the memo and pays only the predictor clone and the
// curve cache.
func BenchmarkHotpathBuildMudiWarm(b *testing.B) {
	if _, err := core.Build(perf.NewOracle(1), 1, core.MudiConfig{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(perf.NewOracle(1), 1, core.MudiConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathServingRun is the request-level serving loop: 4096
// arrivals through greedy batching, including the P99 reduction.
func BenchmarkHotpathServingRun(b *testing.B) {
	arrivals := make([]float64, 4096)
	for i := range arrivals {
		arrivals[i] = float64(i) * 0.002
	}
	lat := func(batch int) float64 { return 4 + 0.05*float64(batch) }
	cfg := serving.Config{BatchCap: 64, SLOms: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := serving.Run(arrivals, lat, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// burstyRate keeps BenchmarkHotpathBurstyQPS's result live.
var burstyRate float64

// BenchmarkHotpathBurstyQPS is one device-window's burst lookup on the
// benchmark's observed-burst-1k schedule (3x bursts of 25 s every 90 s
// up to 20000 s: 222 bursts), one op per 1 s window at increasing t.
func BenchmarkHotpathBurstyQPS(b *testing.B) {
	var bursts []trace.Burst
	for start := 90.0; start < 20000; start += 90 {
		bursts = append(bursts, trace.Burst{Start: start, End: start + 25, Factor: 3})
	}
	q := trace.NewBurstyQPS(trace.ConstantQPS(100), trace.NewBurstSchedule(bursts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burstyRate = q.At(float64(i % 20000))
	}
}
