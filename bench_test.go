package mudi

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (§7). Each benchmark regenerates its
// table/figure through the internal/exp runners and reports the key
// headline metric as a custom benchmark unit, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Use -short for reduced sizes. The
// rows/series themselves can be printed with cmd/mudibench.

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"mudi/internal/exp"
	"mudi/internal/obs"
)

func benchCfg(b *testing.B) exp.Config {
	cfg := exp.Config{Seed: 1, Scale: exp.ScalePhysical}
	if testing.Short() {
		cfg.Scale = exp.ScaleSmall
	}
	return cfg
}

// benchSuiteKey is the comparable identity of a suite configuration
// (exp.Config itself is not a valid map key — it carries an Observer
// func field).
type benchSuiteKey struct {
	seed     uint64
	scale    exp.Scale
	parallel int
}

// benchSuites caches the shared end-to-end suite per config so the
// seven suite-based benchmarks do not each retrain and rerun the
// comparison set.
var benchSuites = map[benchSuiteKey]*exp.Suite{}

// benchSuite returns the (cached) shared end-to-end suite.
func benchSuite(b *testing.B, cfg exp.Config) *exp.Suite {
	b.Helper()
	key := benchSuiteKey{seed: cfg.Seed, scale: cfg.Scale, parallel: cfg.Parallel}
	if s, ok := benchSuites[key]; ok {
		return s
	}
	s, err := exp.NewSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchSuites[key] = s
	return s
}

// cell parses a numeric table cell (stripping % and x suffixes).
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func BenchmarkTable2FittingError(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the piecewise error at 6 samples (the paper's pick).
		b.ReportMetric(cell(b, tab.Rows[1][3]), "pw6-err-%")
	}
}

func BenchmarkFig3InterferenceInfInf(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, row := range tab.Rows {
			if row[0] == "GPT2" {
				sum += cell(b, row[2])
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "gpt2-e2e-x")
	}
}

func BenchmarkFig4InterferenceInfTrain(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, row := range tab.Rows {
			if row[0] == "GPT2" {
				sum += cell(b, row[2])
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "gpt2-e2e-x")
	}
}

func BenchmarkFig5LatencyCurves(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Steepness ratio of the co-located batch-256 column: latency at
		// 10% GPU over latency at 90%.
		lo := cell(b, tab.Rows[0][6])
		hi := cell(b, tab.Rows[8][6])
		b.ReportMetric(lo/hi, "steepness-x")
	}
}

func BenchmarkFig8SLOViolations(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig8(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "mudi" {
				var sum float64
				for _, c := range row[1:] {
					sum += cell(b, c)
				}
				b.ReportMetric(sum/float64(len(row)-1), "mudi-viol-%")
			}
		}
	}
}

func BenchmarkFig9TrainingEfficiency(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig9(s)
		if err != nil {
			b.Fatal(err)
		}
		var mudiCT, gsliceCT float64
		for _, row := range tab.Rows {
			switch row[0] {
			case "mudi":
				mudiCT = cell(b, row[1])
			case "gslice":
				gsliceCT = cell(b, row[1])
			}
		}
		if mudiCT > 0 {
			b.ReportMetric(gsliceCT/mudiCT, "ct-vs-gslice-x")
		}
	}
}

func BenchmarkFig10Utilization(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig10(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "mudi" {
				b.ReportMetric(cell(b, row[1]), "mudi-sm-util-%")
			}
		}
	}
}

func BenchmarkFig11PredictionError(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var cut float64
		for _, row := range tab.Rows {
			cut += cell(b, row[3])
		}
		b.ReportMetric(cut/float64(len(tab.Rows)), "cutoff-err")
	}
}

func BenchmarkFig12IncrementalError(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		var sum float64
		for _, c := range last[1:] {
			sum += cell(b, c)
		}
		b.ReportMetric(sum/float64(len(last)-1), "final-err")
	}
}

func BenchmarkFig13Ablations(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig13(s)
		if err != nil {
			b.Fatal(err)
		}
		full := cell(b, tab.Rows[0][1])
		clusterOnly := cell(b, tab.Rows[1][1])
		if full > 0 {
			b.ReportMetric(clusterOnly/full, "cluster-only-viol-x")
		}
	}
}

func BenchmarkFig14MaxThroughput(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig14(s)
		if err != nil {
			b.Fatal(err)
		}
		var mudiSum float64
		for _, row := range tab.Rows {
			if row[0] == "mudi" {
				for _, c := range row[1:] {
					mudiSum += cell(b, c)
				}
			}
		}
		b.ReportMetric(mudiSum/6, "mudi-mean-qps")
	}
}

func BenchmarkFig15LoadSensitivity(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig15(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "mudi" && row[1] == "3x" {
				b.ReportMetric(cell(b, row[2]), "mudi-3x-viol-%")
			}
		}
	}
}

func BenchmarkFig16BurstyQPS(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig16(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tab.Rows)), "trace-rows")
	}
}

func BenchmarkTable4SwapFraction(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Tab4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, c := range tab.Rows[0] {
			sum += cell(b, c)
		}
		b.ReportMetric(sum/float64(len(tab.Rows[0])), "mean-swap-%")
	}
}

func BenchmarkFig17MudiMore(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fig17(cfg)
		if err != nil {
			b.Fatal(err)
		}
		one := cell(b, tab.Rows[0][2])
		three := cell(b, tab.Rows[1][2])
		if one > 0 {
			b.ReportMetric(three/one, "more-ct-x")
		}
	}
}

func BenchmarkFig18Overheads(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, cfg)
		tab, err := exp.Fig18(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			switch row[0] {
			case "GP-LCB iterations":
				b.ReportMetric(cell(b, row[4]), "bo-iters-mean")
			case "placement decision (ms)":
				b.ReportMetric(cell(b, row[4]), "placement-ms-mean")
			}
		}
	}
}

func BenchmarkOptimalityGap(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Optimality(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, tab.Rows[0][1]), "match-%")
		if len(tab.Rows) >= 2 {
			b.ReportMetric(cell(b, tab.Rows[1][1]), "iter-ratio-x")
		}
	}
}

func BenchmarkAblationTuner(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.AblationTuner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bo := cell(b, tab.Rows[0][2])
		fixed := cell(b, tab.Rows[1][2])
		if bo > 0 {
			b.ReportMetric(fixed/bo, "fixed-vs-bo-ct-x")
		}
	}
}

func BenchmarkQueuePolicies(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.QueuePolicies(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var fcfs, sjf float64
		for _, row := range tab.Rows {
			switch row[0] {
			case "fcfs":
				fcfs = cell(b, row[1])
			case "sjf":
				sjf = cell(b, row[1])
			}
		}
		if sjf > 0 {
			b.ReportMetric(fcfs/sjf, "fcfs-vs-sjf-wait-x")
		}
	}
}

// benchRunAll times the four-policy end-to-end comparison at a given
// worker count. Suite construction (offline profiling + predictor
// training) is excluded from the timed region so the numbers isolate
// the experiment fan-out itself.
func benchRunAll(b *testing.B, parallel int) {
	benchRunAllObs(b, parallel, nil)
}

// benchRunAllObs is benchRunAll with an optional Observer wired into
// every cell — the harness behind BenchmarkSimObsOn/Off.
func benchRunAllObs(b *testing.B, parallel int, observer obs.Observer) {
	benchRunAllTrace(b, parallel, observer, false)
}

// benchRunAllTrace additionally switches per-cell span tracing — the
// harness behind BenchmarkSimTraceOn/Off.
func benchRunAllTrace(b *testing.B, parallel int, observer obs.Observer, trace bool) {
	benchRunAllTL(b, parallel, observer, trace, false)
}

// benchRunAllTL additionally switches per-cell timeline recording — the
// harness behind BenchmarkSimTimelinesOn/Off.
func benchRunAllTL(b *testing.B, parallel int, observer obs.Observer, trace, timelines bool) {
	cfg := benchCfg(b)
	cfg.Parallel = parallel
	cfg.Observer = observer
	cfg.Trace = trace
	cfg.Timelines = timelines
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := exp.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSequential is the one-worker baseline for the parallel
// experiment engine; compare against BenchmarkSuiteParallel.
func BenchmarkSuiteSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkSuiteParallel runs the same cells across GOMAXPROCS workers.
// The results are bit-identical to the sequential run (see
// internal/exp's determinism tests); only the wall clock changes.
func BenchmarkSuiteParallel(b *testing.B) { benchRunAll(b, 0) }

// BenchmarkSimObsOff pins the zero-overhead-when-disabled contract: it
// is the exact BenchmarkSuiteSequential workload with no Observer, so
// every obs call site costs one nil check. Compare against the
// pre-observability BenchmarkSuiteSequential number (BENCH_obs.json).
func BenchmarkSimObsOff(b *testing.B) { benchRunAllObs(b, 1, nil) }

// BenchmarkSimObsOn runs the same workload with a live Observer on
// every cell, measuring the full cost of event fan-out plus metric
// instruments on the simulation hot path.
func BenchmarkSimObsOn(b *testing.B) {
	var events atomic.Int64
	benchRunAllObs(b, 1, func(obs.Event) { events.Add(1) })
	if events.Load() == 0 {
		b.Fatal("observer saw no events")
	}
}

// BenchmarkSimTraceOff pins the record log's zero-overhead-when-
// disabled contract: the exact BenchmarkSimObsOff workload with tracing
// compiled in but off, so every record call site costs one nil check. Its allocs/op
// must match BenchmarkSimObsOff (compare BENCH_trace.json against
// BENCH_hotpath.json).
func BenchmarkSimTraceOff(b *testing.B) { benchRunAllTrace(b, 1, nil, false) }

// BenchmarkSimTraceOn runs the same workload with a live per-cell record
// log (span view) and violation attributor, measuring the full cost of
// causal span capture plus attribution on the simulation hot path.
func BenchmarkSimTraceOn(b *testing.B) { benchRunAllTrace(b, 1, nil, true) }

// BenchmarkSimTimelinesOff pins the timeline store's
// zero-overhead-when-disabled contract: the exact BenchmarkSimObsOff
// workload with timeline recording compiled in but off, so every
// recording site costs one nil check. Its allocs/op must match
// BenchmarkSimObsOff (compare BENCH_timeline.json against
// BENCH_obs.json).
func BenchmarkSimTimelinesOff(b *testing.B) { benchRunAllTL(b, 1, nil, false, false) }

// BenchmarkSimTimelinesOn runs the same workload with a per-cell
// timeline store, measuring the full cost of per-window series capture
// (service, class, fleet, and engine self-profile) on the hot path.
func BenchmarkSimTimelinesOn(b *testing.B) { benchRunAllTL(b, 1, nil, false, true) }

func BenchmarkFidelity(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		tab, err := exp.Fidelity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Ratio of request-level to window-model P99 at batch 64.
		window := cell(b, tab.Rows[2][1])
		req := cell(b, tab.Rows[2][2])
		if window > 0 {
			b.ReportMetric(req/window, "reqlevel-vs-window-x")
		}
	}
}
