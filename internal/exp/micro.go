package exp

import (
	"fmt"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/profiler"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/xrand"
)

// Table2 reproduces the fitting-error comparison (Tab. 2): piecewise vs
// polynomial vs MLP at 5–9 training samples. Each sample count is one
// cell owning a profiler whose measurement-noise stream is derived from
// (Seed+1, sample count), so the rows are independent of both each
// other and cell scheduling.
func Table2(cfg Config) (*report.Table, error) {
	oracle := perf.NewOracle(cfg.Seed)
	task, _ := model.TaskByName("VGG16")
	trials := 4
	if cfg.Scale != ScaleSmall {
		trials = 10
	}
	sampleCounts := []int{5, 6, 7, 8, 9}
	cells := make([]runner.Cell[profiler.FitComparison], len(sampleCounts))
	for i, n := range sampleCounts {
		n := n
		cells[i] = runner.Cell[profiler.FitComparison]{
			Key: fmt.Sprintf("samples=%d", n),
			Run: func() (profiler.FitComparison, error) {
				prof := profiler.New(oracle, xrand.New(xrand.DeriveSeed(cfg.Seed+1, uint64(n))))
				rows, err := prof.CompareFitting(
					[]string{"GPT2", "ResNet50", "BERT"}, 128,
					[]model.TrainingTask{task},
					[]int{n}, trials,
				)
				if err != nil {
					return profiler.FitComparison{}, err
				}
				return rows[0], nil
			},
		}
	}
	rows, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: table2: %w", err)
	}
	t := report.NewTable("Table 2: fitting error (% MAPE) vs training samples",
		"samples", "polynomial", "MLP", "piecewise")
	for _, r := range rows {
		t.AddRow(r.Samples, r.Poly, r.MLP, r.Piecewise)
	}
	t.AddNote("paper: piecewise 10.03/6.41/4.27/3.91/3.78 — worst at 5 samples, best from 6 on")
	return t, nil
}

// victimBreakdown is one Fig. 3/4 cell's output: the per-co-location
// rows plus the victim's summary note, merged into the table in victim
// order after the cells complete.
type victimBreakdown struct {
	rows [][]any
	note string
}

// Fig3 reproduces the inference-with-inference interference breakdown:
// mean E2E factor per co-located service and the per-phase factors for
// GPT2 and ResNet50.
func Fig3(cfg Config) (*report.Table, error) {
	var services []string
	for _, svc := range model.Services() {
		services = append(services, svc.Name)
	}
	return interference(cfg, perf.ColocInference, services, []int{16, 32, 64, 128, 256}, "fig3",
		"Fig. 3: interference of GPT2/ResNet50 co-located with other inference services", "GPT2 3.19x, ResNet50 2.40x")
}

// Fig4 reproduces the inference-with-training interference breakdown
// over every catalog training task.
func Fig4(cfg Config) (*report.Table, error) {
	var tasks []string
	for _, task := range model.Tasks() {
		tasks = append(tasks, task.Name)
	}
	return interference(cfg, perf.ColocTraining, tasks, model.BatchSizes(), "fig4",
		"Fig. 4: interference of GPT2/ResNet50 co-located with training tasks", "GPT2 1.67x, ResNet50 1.21x")
}

// interference is the Fig. 3/4 runner: for GPT2 and ResNet50, the mean
// E2E factor next to each neighbour (a service for ColocInference, a
// training task for ColocTraining) over the batch set, with its
// per-phase factors. The two victims are independent cells — the
// oracle's factor calls are noiseless and read-only. paper quotes the
// paper's mean factors in each victim's note.
func interference(cfg Config, kind perf.ColocKind, neighbours []string, batches []int, id, title, paper string) (*report.Table, error) {
	oracle := perf.NewOracle(cfg.Seed)
	factor := func(victim, other string, b int) (float64, error) {
		if kind == perf.ColocInference {
			return oracle.InfColocFactor(victim, other, b)
		}
		task, _ := model.TaskByName(other)
		return oracle.TrainColocFactor(victim, b, []model.TrainingTask{task})
	}
	victims := []string{"GPT2", "ResNet50"}
	cells := make([]runner.Cell[victimBreakdown], len(victims))
	for i, victim := range victims {
		victim := victim
		cells[i] = runner.Cell[victimBreakdown]{Key: victim, Run: func() (victimBreakdown, error) {
			var out victimBreakdown
			var sum float64
			var n int
			for _, other := range neighbours {
				if other == victim {
					continue
				}
				var mean float64
				for _, b := range batches {
					f, err := factor(victim, other, b)
					if err != nil {
						return out, err
					}
					mean += f
				}
				mean /= float64(len(batches))
				_, phases, err := oracle.PhaseBreakdown(victim, kind, mean)
				if err != nil {
					return out, err
				}
				out.rows = append(out.rows, []any{victim, other, report.Ratio(mean), report.Ratio(phases[0]), report.Ratio(phases[1]), report.Ratio(phases[2])})
				sum += mean
				n++
			}
			cpu, mem, sm, err := oracle.ResourceUtil(victim, kind)
			if err != nil {
				return out, err
			}
			out.note = fmt.Sprintf("%s mean E2E %s (paper: %s); host CPU %.1f%%, host mem %.1f%%, SM %.1f%%",
				victim, report.Ratio(sum/float64(n)), paper, cpu, mem, sm)
			return out, nil
		}}
	}
	breakdowns, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", id, err)
	}
	t := report.NewTable(title, "victim", "coloc", "E2E", "preproc", "transfer", "compute")
	for _, b := range breakdowns {
		for _, row := range b.rows {
			t.AddRow(row...)
		}
		t.AddNote("%s", b.note)
	}
	return t, nil
}

// Fig5 reproduces the piecewise latency curves: GPT2 latency vs GPU%
// under solo run and under co-location with ResNet50-train at batch
// 256, for a range of batching sizes.
func Fig5(cfg Config) (*report.Table, error) {
	oracle := perf.NewOracle(cfg.Seed)
	coloc, _ := model.TaskByName("ResNet50-train")
	t := report.NewTable("Fig. 5: GPT2 P99 latency (ms) vs GPU% — solo and co-located with training",
		"GPU%", "solo b=16", "solo b=64", "solo b=256", "coloc b=16", "coloc b=64", "coloc b=256")
	batches := []int{16, 64, 256}
	for _, delta := range model.GPUGrid() {
		row := []any{fmt.Sprintf("%.0f%%", delta*100)}
		for _, b := range batches {
			l, err := oracle.TrueLatency("GPT2", b, delta, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, l)
		}
		for _, b := range batches {
			l, err := oracle.TrueLatency("GPT2", b, delta, []model.TrainingTask{coloc})
			if err != nil {
				return nil, err
			}
			row = append(row, l)
		}
		t.AddRow(row...)
	}
	for _, b := range batches {
		solo, err := oracle.SoloCurve("GPT2", b)
		if err != nil {
			return nil, err
		}
		co, err := oracle.TrainColocCurve("GPT2", b, []model.TrainingTask{coloc})
		if err != nil {
			return nil, err
		}
		t.AddNote("b=%d knee: solo Δ0=%.2f, coloc Δ0=%.2f (knee persists and shifts right under co-location)", b, solo.Cutoff, co.Cutoff)
	}
	return t, nil
}
