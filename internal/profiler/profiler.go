// Package profiler implements Mudi's Offline Profiler (§4.1): the
// Latency Profiler samples each inference service's P99 latency over
// the GPU% grid for every (batch size, co-located training task)
// combination and fits the Eq. 1 piecewise-linear function; the
// resulting parameter sets are the training data for the Interference
// Modeler. The package also reproduces Table 2's comparison of fitting
// model families.
package profiler

import (
	"fmt"

	"mudi/internal/fit"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/xrand"
)

// Profile is one fitted latency curve with its provenance.
type Profile struct {
	Service string
	Batch   int
	Coloc   []model.TrainingTask // empty = solo
	Curve   piecewise.Func
	Samples []fit.Sample
}

// ColocArch returns the cumulative architecture of the co-located
// tasks — the Ψ feature for the Interference Modeler.
func (p Profile) ColocArch() model.Arch {
	var a model.Arch
	for _, t := range p.Coloc {
		a = a.Add(t.Arch)
	}
	return a
}

// SampleGrid is the GPU% grid every latency curve is sampled on: 6
// training samples spread over the 10–90% grid (§4.1.1), the Table 2
// sweet spot. Offline profiling and Mudi's online profiling of new
// co-locations both use it.
func SampleGrid() []float64 { return []float64{0.1, 0.3, 0.4, 0.6, 0.7, 0.9} }

// Profiler drives sampling against the performance oracle (the
// "testbed").
type Profiler struct {
	oracle *perf.Oracle
	rng    *xrand.Rand
}

// New returns a profiler over the given oracle.
func New(oracle *perf.Oracle, rng *xrand.Rand) *Profiler {
	return &Profiler{oracle: oracle, rng: rng}
}

// ProfileOne measures and fits one (service, batch, co-location) cell.
func (p *Profiler) ProfileOne(svc string, batch int, coloc []model.TrainingTask) (Profile, error) {
	grid := SampleGrid()
	samples := make([]fit.Sample, 0, len(grid))
	for _, d := range grid {
		l, err := p.oracle.MeasureLatency(svc, batch, d, coloc, p.rng)
		if err != nil {
			return Profile{}, err
		}
		samples = append(samples, fit.Sample{Delta: d, Latency: l})
	}
	curve, err := fit.Piecewise(samples)
	if err != nil {
		return Profile{}, fmt.Errorf("profiler: fitting %s/b%d: %w", svc, batch, err)
	}
	return Profile{Service: svc, Batch: batch, Coloc: coloc, Curve: curve, Samples: samples}, nil
}

// ProfileService runs the full offline grid for one service: every
// batch size × every co-location set (each observed task alone; the
// paper constrains offline profiling to the first five Tab. 3 types).
func (p *Profiler) ProfileService(svc string, batches []int, colocSets [][]model.TrainingTask) ([]Profile, error) {
	if len(batches) == 0 {
		batches = model.BatchSizes()
	}
	if len(colocSets) == 0 {
		// Solo run first (Ψ = 0), then each observed task alone: the
		// predictor must interpolate down to an idle co-location for
		// devices that currently host no training.
		colocSets = append(colocSets, nil)
		for _, t := range model.ObservedTasks() {
			colocSets = append(colocSets, []model.TrainingTask{t})
		}
	}
	var out []Profile
	for _, b := range batches {
		for _, set := range colocSets {
			prof, err := p.ProfileOne(svc, b, set)
			if err != nil {
				return nil, err
			}
			out = append(out, prof)
		}
	}
	return out, nil
}

// ProfileAll runs ProfileService for every catalog service.
func (p *Profiler) ProfileAll(batches []int, colocSets [][]model.TrainingTask) (map[string][]Profile, error) {
	out := make(map[string][]Profile)
	for _, svc := range model.Services() {
		profs, err := p.ProfileService(svc.Name, batches, colocSets)
		if err != nil {
			return nil, err
		}
		out[svc.Name] = profs
	}
	return out, nil
}

// MultiColocSets returns co-location sets with up to maxTasks observed
// tasks per set — the expanded sampling Mudi-more performs (§5.5).
// Sets are deterministic: singletons, then ordered pairs, then triples.
func MultiColocSets(maxTasks int) [][]model.TrainingTask {
	obs := model.ObservedTasks()
	var out [][]model.TrainingTask
	for i := range obs {
		out = append(out, []model.TrainingTask{obs[i]})
	}
	if maxTasks >= 2 {
		for i := range obs {
			for j := i + 1; j < len(obs); j++ {
				out = append(out, []model.TrainingTask{obs[i], obs[j]})
			}
		}
	}
	if maxTasks >= 3 {
		for i := range obs {
			for j := i + 1; j < len(obs); j++ {
				for k := j + 1; k < len(obs); k++ {
					out = append(out, []model.TrainingTask{obs[i], obs[j], obs[k]})
				}
			}
		}
	}
	return out
}

// FitComparison is one Table 2 row set: test error (percent MAPE) of
// each model family at a given training sample count.
type FitComparison struct {
	Samples   int
	Piecewise float64
	Poly      float64
	MLP       float64
}

// CompareFitting reproduces Table 2 against the oracle: for each
// sample budget, fit all three families on noisy grid measurements and
// evaluate all of them on one fixed set of fresh off-grid measurements
// (so rows are comparable across budgets), averaged over services, a
// fixed batch, a co-located task, and `trials` noise draws.
func (p *Profiler) CompareFitting(services []string, batch int, coloc []model.TrainingTask, sampleCounts []int, trials int) ([]FitComparison, error) {
	grid := model.GPUGrid()
	trainSets := map[int][]int{
		5: {0, 2, 4, 6, 8},
		6: {0, 2, 4, 5, 6, 8},
		7: {0, 2, 3, 4, 5, 6, 8},
		8: {0, 1, 2, 3, 4, 5, 6, 8},
		9: {0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	testDeltas := []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85}
	if trials <= 0 {
		trials = 10
	}
	var out []FitComparison
	for _, n := range sampleCounts {
		idxs, ok := trainSets[n]
		if !ok {
			return nil, fmt.Errorf("profiler: unsupported sample count %d", n)
		}
		row := FitComparison{Samples: n}
		var cells int
		for _, svc := range services {
			for trial := 0; trial < trials; trial++ {
				var train []fit.Sample
				for _, i := range idxs {
					l, err := p.oracle.MeasureLatency(svc, batch, grid[i], coloc, p.rng)
					if err != nil {
						return nil, err
					}
					train = append(train, fit.Sample{Delta: grid[i], Latency: l})
				}
				var test []fit.Sample
				for _, d := range testDeltas {
					l, err := p.oracle.MeasureLatency(svc, batch, d, coloc, p.rng)
					if err != nil {
						return nil, err
					}
					test = append(test, fit.Sample{Delta: d, Latency: l})
				}
				pw, err := fit.Piecewise(train)
				if err != nil {
					return nil, err
				}
				poly, err := fit.Polynomial(train, 3)
				if err != nil {
					return nil, err
				}
				mlp, err := fit.MLPModel(train, fit.MLPConfig{Seed: uint64(trial), Hidden: 10, Epochs: 2500})
				if err != nil {
					return nil, err
				}
				row.Piecewise += fit.EvalError(pw.Eval, test)
				row.Poly += fit.EvalError(poly, test)
				row.MLP += fit.EvalError(mlp, test)
				cells++
			}
		}
		row.Piecewise /= float64(cells)
		row.Poly /= float64(cells)
		row.MLP /= float64(cells)
		out = append(out, row)
	}
	return out, nil
}
