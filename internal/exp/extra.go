package exp

import (
	"fmt"
	"sort"

	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/sched"
	"mudi/internal/serving"
	"mudi/internal/stats"
	"mudi/internal/trace"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// AblationTuner compares the Tuner's batching strategies — the design
// choice §5.3.1 motivates: GP-LCB should match exhaustive search's
// quality at a fraction of the evaluations, and clearly beat a fixed
// batch.
func AblationTuner(cfg Config) (*report.Table, error) {
	oracle := newOracle(cfg)
	devices, tasks, gap, iterScale := cfg.sizes()
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{
		Count: tasks, MeanGapSec: gap, ScaleIters: iterScale, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	arms := []struct {
		name     string
		strategy tuner.BatchStrategy
	}{
		{"GP-LCB (Mudi)", tuner.BatchBO},
		{"fixed batch 64", tuner.BatchFixed},
		{"exhaustive search", tuner.BatchExhaustive},
	}
	// Each strategy arm owns its Mudi, so the three arms fan across the
	// pool.
	type armResult struct {
		res       *cluster.Result
		meanEvals float64
	}
	cells := make([]runner.Cell[armResult], len(arms))
	for i, arm := range arms {
		arm := arm
		cells[i] = runner.Cell[armResult]{Key: arm.name, Run: func() (armResult, error) {
			mudi, err := core.Build(oracle, cfg.Seed, core.MudiConfig{Tuner: tuner.Config{Strategy: arm.strategy}})
			if err != nil {
				return armResult{}, err
			}
			res, err := cfg.simulate(cluster.Options{
				Policy: mudi, Oracle: oracle,
				Devices: devices, Arrivals: arrivals,
			})
			if err != nil {
				return armResult{}, err
			}
			var evalSum float64
			for _, v := range res.BOIterations {
				evalSum += float64(v)
			}
			meanEvals := 0.0
			if len(res.BOIterations) > 0 {
				meanEvals = evalSum / float64(len(res.BOIterations))
			}
			return armResult{res: res, meanEvals: meanEvals}, nil
		}}
	}
	ress, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: ablation-tuner: %w", err)
	}
	t := report.NewTable("Ablation: adaptive-batching strategy (§5.3.1)",
		"strategy", "SLO violation", "mean CT (s)", "makespan (s)", "mean evals/episode")
	for i, arm := range arms {
		r := ress[i]
		t.AddRow(arm.name, report.Pct(r.res.MeanSLOViolation()), r.res.MeanCT(), r.res.Makespan, r.meanEvals)
	}
	t.AddNote("expected shape: GP-LCB matches exhaustive-search quality and beats a fixed batch; with only 6 candidates the evaluation-count advantage the paper cites for 1000-sized spaces does not apply")
	return t, nil
}

// QueuePolicies runs Mudi under the four scheduling policies the paper
// says it integrates with (§3): FCFS, SJF, fair sharing, priority.
func QueuePolicies(cfg Config) (*report.Table, error) {
	oracle := newOracle(cfg)
	devices, tasks, gap, iterScale := cfg.sizes()
	// Halve the gap so the queue actually forms and ordering matters.
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{
		Count: tasks, MeanGapSec: gap / 2, ScaleIters: iterScale * 2, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// One cell per queue policy, each with its own Mudi.
	names := []string{"fcfs", "sjf", "fair", "priority"}
	cells := make([]runner.Cell[*cluster.Result], len(names))
	for i, name := range names {
		name := name
		cells[i] = runner.Cell[*cluster.Result]{Key: name, Run: func() (*cluster.Result, error) {
			queue, err := sched.PolicyByName(name)
			if err != nil {
				return nil, err
			}
			mudi, err := core.Build(oracle, cfg.Seed, core.MudiConfig{})
			if err != nil {
				return nil, err
			}
			return cfg.simulate(cluster.Options{
				Policy: mudi, Oracle: oracle,
				Devices: devices, Arrivals: arrivals, QueuePolicy: queue,
			})
		}}
	}
	ress, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: queue-policies: %w", err)
	}
	t := report.NewTable("Scheduling policies under Mudi (§3)",
		"queue policy", "mean wait (s)", "P90 wait (s)", "mean CT (s)", "makespan (s)", "SLO violation")
	for i, name := range names {
		res := ress[i]
		t.AddRow(name, res.MeanWaiting(), stats.Percentile(res.WaitingT, 90),
			res.MeanCT(), res.Makespan, report.Pct(res.MeanSLOViolation()))
	}
	t.AddNote("the multiplexing core is unchanged across policies; only queue ordering differs (SJF should cut mean wait)")
	return t, nil
}

// Fidelity cross-checks the two simulation levels: the window model's
// analytic latency against the request-level batching server, for one
// service across batch sizes. The window model is the paper's own
// 1000-GPU simulation methodology; the request-level server adds
// batch-assembly queueing.
func Fidelity(cfg Config) (*report.Table, error) {
	oracle := newOracle(cfg)
	svcName := "BERT"
	svc, _ := model.ServiceByName(svcName)
	task, _ := model.TaskByName("LSTM")
	coloc := []model.TrainingTask{task}
	const delta = 0.6
	rng := xrand.New(cfg.Seed + 41)

	dur := 30.0
	if cfg.Scale != ScaleSmall {
		dur = 120
	}
	// The arrivals stream is shared read-only across the batch-cap
	// cells; each cell draws its measurement noise from its own stream
	// derived from (Seed+41, batch index).
	arrivalsStream := trace.PoissonArrivals(trace.ConstantQPS(svc.BaseQPS), dur, rng.ForkString("arrivals"))
	type fidelityRow struct {
		analytic float64
		res      serving.Result
	}
	batches := model.BatchSizes()
	cells := make([]runner.Cell[fidelityRow], len(batches))
	for i, b := range batches {
		i, b := i, b
		cells[i] = runner.Cell[fidelityRow]{Key: fmt.Sprintf("batch=%d", b), Run: func() (fidelityRow, error) {
			analytic, err := oracle.TrueLatency(svcName, b, delta, coloc)
			if err != nil {
				return fidelityRow{}, err
			}
			cellRng := xrand.New(xrand.DeriveSeed(cfg.Seed+41, uint64(i)))
			latFn := func(n int) float64 {
				// The device executes whatever batch actually formed (≤ cap).
				l, err := oracle.MeasureLatency(svcName, maxInt(n, 1), delta, coloc, cellRng)
				if err != nil {
					return analytic
				}
				return l
			}
			res, err := serving.Run(arrivalsStream, latFn, serving.Config{
				BatchCap:    b,
				SLOms:       svc.SLOms,
				FormBatches: true,
				MaxWaitMs:   opt.Budget(svc.SLOms, b, svc.BaseQPS), // the window model's budget
			})
			if err != nil {
				return fidelityRow{}, err
			}
			return fidelityRow{analytic: analytic, res: res}, nil
		}}
	}
	rows, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: fidelity: %w", err)
	}
	t := report.NewTable("Simulator fidelity: window model vs request-level serving (BERT, Δ=60%)",
		"batch cap", "window P99 (ms)", "request-level P99 (ms)", "busy", "mean batch", "viol (req-level)")
	for i, b := range batches {
		r := rows[i]
		t.AddRow(b, r.analytic, r.res.P99, fmt.Sprintf("%.0f%%", r.res.BusyFraction*100),
			r.res.MeanBatch, report.Pct(r.res.ViolationRate))
	}
	t.AddNote("request-level P99 adds queueing/batch-assembly wait on top of the processing latency the window model uses")
	return t, nil
}

// Background regenerates the §2 motivation statistics from our
// generators: the QPS fluctuation band (Fig. 1a's character) and the
// training-task size mix (Tab. 3 / Fig. 2's inputs).
func Background(cfg Config) (*report.Table, error) {
	rng := xrand.New(cfg.Seed + 51)
	t := report.NewTable("Background: workload character (§2)", "metric", "value")

	// QPS trace statistics over 2 simulated hours.
	q := trace.NewFluctuatingQPS(200, rng.ForkString("qps"))
	var samples []float64
	for ts := 0.0; ts < 7200; ts += 10 {
		samples = append(samples, q.At(ts))
	}
	t.AddRow("QPS mean (base 200)", stats.Mean(samples))
	t.AddRow("QPS min / max", fmt.Sprintf("%.0f / %.0f", stats.Min(samples), stats.Max(samples)))
	t.AddRow("QPS coefficient of variation", stats.StdDev(samples)/stats.Mean(samples))

	// Training-task mix and solo durations.
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{Count: 2000, MeanGapSec: 5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	counts := map[model.SizeClass]int{}
	for _, a := range arrivals {
		counts[a.Task.Size]++
	}
	total := float64(len(arrivals))
	t.AddRow("task mix S/M/L/XL", fmt.Sprintf("%.0f%% / %.0f%% / %.0f%% / %.0f%%",
		100*float64(counts[model.SizeS])/total, 100*float64(counts[model.SizeM])/total,
		100*float64(counts[model.SizeL])/total, 100*float64(counts[model.SizeXL])/total))
	var hours []float64
	for _, task := range model.Tasks() {
		hours = append(hours, task.SoloGPUHours())
	}
	sort.Float64s(hours) // one sort serves min, median, and max
	t.AddRow("catalog solo GPU-hours min/median/max",
		fmt.Sprintf("%.2f / %.1f / %.0f", hours[0], stats.PercentileSorted(hours, 50), hours[len(hours)-1]))
	t.AddNote("compare: Fig. 1a's 30k–60k QPS band with inflections; Tab. 3's 42%% S / 36%% M / 22%% L+XL mix")
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
