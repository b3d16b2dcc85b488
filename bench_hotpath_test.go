package mudi

// Hot-path micro-benchmarks behind `make bench-hotpath`: they isolate
// the simulator inner loops the end-to-end alloc budget
// (BenchmarkSimObsOff, BENCH_hotpath.json) depends on — GP posterior
// updates, percentile extraction, oracle curve construction, burst
// schedule lookups, the request-level serving loop, Mudi's device
// selection and device configuration, the online learner's refits and
// model selection, the Interference Predictor's four-target online
// update, a warm Mudi build, and the sharded engine's parallel window.
// The AllocsPerRun regression tests in internal/gp, internal/stats and
// internal/core pin the steady states; these benchmarks track the
// constants.

import (
	"fmt"
	"math"
	"testing"

	"mudi/internal/core"
	"mudi/internal/gp"
	"mudi/internal/learn"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/serving"
	"mudi/internal/shard"
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
	inc := learn.NewIncremental(1)
	for i := range x {
		inc.Add(x[i], y[i], groups[i])
	}
	if err := inc.Select(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inc.Select(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathIncrementalObserve is what one newly observed
// co-location costs a predictor target online: six samples, one per
// batch size, each added and refitted when a refit is due, on a learner
// that holds the 36-row, 6-group offline grid. The fifth refits the
// incumbent family.
func BenchmarkHotpathIncrementalObserve(b *testing.B) {
	x, y, groups := predictorSamples()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := learn.NewIncremental(1)
		for j := 0; j < 36; j++ {
			inc.Add(x[j], y[j], groups[j])
		}
		if err := inc.Select(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 36; j < 42; j++ {
			inc.Add(x[j], y[j], groups[j])
			if !inc.RefitDue() {
				continue
			}
			if err := inc.Refit(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHotpathPredictorObserve is what one newly observed
// co-location costs the Interference Predictor online: six Updates,
// one per batch size, each reaching all four targets of a predictor
// trained on one service's 36-row offline grid. The fifth refits the
// four incumbent families, concurrently when GOMAXPROCS allows.
func BenchmarkHotpathPredictorObserve(b *testing.B) {
	o := perf.NewOracle(1)
	prof := profiler.New(o, xrand.New(11))
	svc := model.Services()[0].Name
	offline, err := prof.ProfileService(svc, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	trained := predictor.New(1)
	if err := trained.Train(offline); err != nil {
		b.Fatal(err)
	}
	var online []profiler.Profile
	for _, batch := range model.BatchSizes() {
		p, err := prof.ProfileOne(svc, batch, model.UnseenTasks()[:1])
		if err != nil {
			b.Fatal(err)
		}
		online = append(online, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pred := trained.Clone()
		b.StartTimer()
		for _, p := range online {
			if err := pred.Update(p); err != nil {
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

// selectFleet1k is the Device Selector benchmarks' fleet: 1024 devices
// of the six catalog services, each with no resident or one.
func selectFleet1k() []DeviceView {
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
	return views
}

// selectFleet1kSpread is selectFleet1k with each device's QPS read
// off its own fluctuating trace around its service's base rate, as the
// fleet workloads' devices see it a minute in.
func selectFleet1kSpread() []DeviceView {
	services := model.Services()
	rng := xrand.New(1)
	views := selectFleet1k()
	for i := range views {
		views[i].QPS = trace.NewFluctuatingQPS(services[i%len(services)].BaseQPS, rng).At(60)
	}
	return views
}

// benchmarkMudiSelect times warm Device Selector calls over views and
// reports the Eq. 4 solves per call. The predictor does not learn
// between calls, so every key's memo entry from the first call stays
// valid.
func benchmarkMudiSelect(b *testing.B, views []DeviceView) {
	sys, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sys.Policy().(*core.Mudi)
	task := model.ObservedTasks()[1]
	b.ReportAllocs()
	b.ResetTimer()
	solves := m.SelectSolves()
	for i := 0; i < b.N; i++ {
		if _, ok := m.SelectDevice(task, views, nil); !ok {
			b.Fatal("no device selected")
		}
	}
	b.ReportMetric(float64(m.SelectSolves()-solves)/float64(b.N), "solves/op")
}

// BenchmarkHotpathMudiSelect1k is one warm Device Selector call over a
// 1024-device fleet of the six catalog services, each with no resident
// or one: twelve distinct (service, Ψ) keys, every device of a service
// at the same QPS.
func BenchmarkHotpathMudiSelect1k(b *testing.B) { benchmarkMudiSelect(b, selectFleet1k()) }

// BenchmarkHotpathMudiSelect1kSpread is BenchmarkHotpathMudiSelect1k
// with QPS spread per device (selectFleet1kSpread), so no group of
// devices is one tie.
func BenchmarkHotpathMudiSelect1kSpread(b *testing.B) {
	benchmarkMudiSelect(b, selectFleet1kSpread())
}

// BenchmarkHotpathMudiSelect1kLearned is BenchmarkHotpathMudiSelect1k
// with the predictor learning between calls, as it does between
// placements: before each call, outside the timer, one Predictor.Update
// for the next service moves that service's generation, so each call
// recomputes one memo entry (twelve curve predictions) and solves Eq. 4
// per device. Every 64 calls the system is rebuilt, also outside the
// timer, so the learners' sample sets stay the same size.
func BenchmarkHotpathMudiSelect1kLearned(b *testing.B) {
	services := model.Services()
	task := model.ObservedTasks()[1]
	prof := profiler.New(perf.NewOracle(1), xrand.New(7))
	profiles := make([]profiler.Profile, len(services))
	for i, svc := range services {
		ps, err := prof.ProfileService(svc.Name, []int{64}, [][]model.TrainingTask{model.ObservedTasks()[2:3]})
		if err != nil {
			b.Fatal(err)
		}
		profiles[i] = ps[0]
	}
	views := selectFleet1k()
	var m *core.Mudi
	solves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%64 == 0 {
			sys, err := NewSystem(SystemConfig{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			m = sys.Policy().(*core.Mudi)
			m.SelectDevice(task, views, nil) // fills the memo
		}
		if err := m.Predictor().Update(profiles[i%len(profiles)]); err != nil {
			b.Fatal(err)
		}
		before := m.SelectSolves()
		b.StartTimer()
		if _, ok := m.SelectDevice(task, views, nil); !ok {
			b.Fatal("no device selected")
		}
		solves += m.SelectSolves() - before
	}
	b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
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

// configureDecision keeps BenchmarkHotpathConfigure's result live.
var configureDecision core.Decision

// BenchmarkHotpathConfigure is one Monitor retune's policy call: a
// warm Mudi's Configure on a BERT device next to an observed training
// task, a co-location the offline grid profiled, so every candidate's
// curve is an exact fit. Without a measurer no BO measurement runs:
// the op is curve resolution plus the tuner's Eq. 4 solves, and it
// allocates nothing.
func BenchmarkHotpathConfigure(b *testing.B) {
	m, err := core.Build(perf.NewOracle(1), 1, core.MudiConfig{})
	if err != nil {
		b.Fatal(err)
	}
	svc, _ := model.ServiceByName("BERT")
	view := core.DeviceView{
		ID: "gpu0", ServiceName: svc.Name, SLOms: svc.SLOms, QPS: svc.BaseQPS,
		Batch: 64, Delta: 0.5, FreeShare: 0.5,
		ResidentTasks: model.ObservedTasks()[:1],
	}
	if configureDecision, err = m.Configure(view, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		configureDecision, _ = m.Configure(view, nil)
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

// BenchmarkHotpathHistogramWindow1k is an observed window's metrics
// write, made by the barrier tick: one op publishes one window's latency to each of 1024 sink
// histograms with a single Sink.ObserveAll. Every 2048 windows, about
// a device's window count on the benchmark's observed-burst-1k
// workload, the histograms start over on a fresh sink, so the op pays
// chunk growth at a run's sizes and memory stays bounded.
func BenchmarkHotpathHistogramWindow1k(b *testing.B) {
	const devices, runWindows = 1024, 2048
	names := make([]string, devices)
	for i := range names {
		names[i] = obs.Labeled("inf_latency_ms", fmt.Sprintf("gpu%04d", i), "BERT")
	}
	es := make([]obs.Entry, devices)
	var sink *obs.Sink
	fresh := func() {
		sink = obs.NewSink()
		for i := range es {
			es[i].Histogram = sink.Histogram(names[i])
		}
	}
	fresh()
	lat := benchLatencies(devices)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < b.N; w++ {
		if w > 0 && w%runWindows == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		for i := range es {
			es[i].Value = lat[(i+w)%devices]
		}
		sink.ObserveAll(es)
	}
}

// BenchmarkHotpathEngineWindow is the sharded engine's parallel step
// and its hand-off: 1024 devices on two lanes and two workers, a step
// with fixed per-device work and a tick with a fixed serial cost, about
// the shape of a window on the benchmark's 1k-device workloads. One op
// is one window; ns/window is the hand-off's cost plus the work.
func BenchmarkHotpathEngineWindow(b *testing.B) {
	const devices = 1024
	e, err := shard.New(devices, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	state := make([]float64, devices)
	step := func(_ *shard.Lane, d int, now float64) {
		x := state[d]
		for i := 0; i < 64; i++ {
			x = x*0.999 + now
		}
		state[d] = x
	}
	var serial float64
	tick := func(now float64) {
		for i := 0; i < 16384; i++ {
			serial = serial*0.999 + now
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(float64(b.N), nil, step, tick)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}
