package learn

import (
	"fmt"
	"math"
)

// Candidates returns a fresh instance of every model family the
// Interference Modeler considers, seeded deterministically.
func Candidates(seed uint64) []Regressor {
	return []Regressor{
		NewLinear(),
		NewKNN(3),
		NewKernelRidge(0, 0),
		NewForest(30, seed),
		NewGBRT(60, seed),
	}
}

// minCVSamples is the fewest samples model selection cross-validates;
// below it selectAmong falls back to a 1-nearest-neighbour fit.
const minCVSamples = 4

// newFamily returns a fresh instance of the Candidates family named
// name, built with the same constructor and seed, or nil for an
// unknown name.
func newFamily(name string, seed uint64) Regressor {
	for _, c := range Candidates(seed) {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// SelectResult reports the winning model of a cross-validation.
type SelectResult struct {
	Model   Regressor
	Name    string
	CVError float64 // mean absolute percentage error across folds
}

// SelectModelGrouped picks the candidate family with the lowest
// cross-validation error and returns it refitted on the full dataset —
// the per-metric model selection of §4.1.2. It holds out by group:
// samples sharing a group label (e.g. the same co-located architecture
// at different batch sizes) are held out together, so the CV score
// measures generalization to *new* architectures rather than
// interpolation across batch sizes. With nil/uniform groups it falls
// back to min(5, n)-fold.
//
// The CV error is the MAPE pooled over every fold; ties go to the
// earliest family in Candidates order. The family named first (the
// previous winner of an incremental learner; "" or an unknown name for
// none) is cross-validated before the others, and any family whose
// summed percentage errors already put its MAPE above the best so far
// is stopped between folds: the sum only grows, so it could not win.
// The winner, its CV error and its fit are those of cross-validating
// every family on every fold.
func SelectModelGrouped(x [][]float64, y []float64, groups []string, seed uint64, first string) (SelectResult, error) {
	return selectAmong(Candidates(seed), x, y, groups, first)
}

// selectAmong is SelectModelGrouped over a given candidate list.
func selectAmong(cands []Regressor, x [][]float64, y []float64, groups []string, first string) (SelectResult, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return SelectResult{}, ErrNoData
	}
	if groups != nil && len(groups) != n {
		return SelectResult{}, fmt.Errorf("learn: %d groups for %d samples", len(groups), n)
	}
	if n < minCVSamples {
		// Too few samples for cross-validation: fall back to a nearest
		// neighbour model, which is well-defined from one sample on.
		m := NewKNN(1)
		if err := m.Fit(x, y); err != nil {
			return SelectResult{}, err
		}
		return SelectResult{Model: m, Name: m.Name()}, nil
	}
	plan := foldPlan(x, y, groups, min(5, n))
	nz := 0
	for _, fd := range plan {
		for _, v := range fd.teY {
			if v != 0 {
				nz++
			}
		}
	}
	// Evaluation order: the named family first, then the rest in
	// catalog order. Only the bound depends on it, not the result.
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.Name() == first {
			order = append(order, i)
		}
	}
	for i, c := range cands {
		if c.Name() != first {
			order = append(order, i)
		}
	}
	best, bestIdx := SelectResult{CVError: math.Inf(1)}, -1
	for _, i := range order {
		cand := cands[i]
		cv, err := crossValidate(cand, plan, nz, best.CVError)
		if err != nil {
			continue // a family that cannot fit this data is simply skipped
		}
		if cv < best.CVError || (cv == best.CVError && bestIdx >= 0 && i < bestIdx) {
			best, bestIdx = SelectResult{Model: cand, Name: cand.Name(), CVError: cv}, i
		}
	}
	if best.Model == nil {
		return SelectResult{}, fmt.Errorf("learn: no candidate model could fit %d samples", n)
	}
	if err := best.Model.Fit(x, y); err != nil {
		return SelectResult{}, err
	}
	// The winner is kept until the next selection, which fits fresh
	// candidates: scratch kept for its refits would only pin memory.
	if m, ok := best.Model.(scratchHolder); ok {
		m.dropScratch()
	}
	return best, nil
}

// scratchHolder is a model that keeps fit scratch for its next Fit.
// After dropScratch it still predicts, and a later Fit allocates anew.
type scratchHolder interface{ dropScratch() }

// fold is one cross-validation split's train and test rows.
type fold struct {
	trX, teX [][]float64
	trY, teY []float64
}

// foldPlan splits the samples once for every candidate family:
// leave-one-group-out when there are at least 3 distinct groups, and
// k-fold (sample i held out in fold i%folds) otherwise. Folds with an
// empty side are dropped.
func foldPlan(x [][]float64, y []float64, groups []string, folds int) []fold {
	nfolds, held := folds, func(i, f int) bool { return i%folds == f }
	if hold := heldGroups(groups); hold != nil {
		nfolds, held = len(hold), func(i, f int) bool { return groups[i] == hold[f] }
	}
	plan := make([]fold, 0, nfolds)
	for f := 0; f < nfolds; f++ {
		var fd fold
		for i := range x {
			if held(i, f) {
				fd.teX = append(fd.teX, x[i])
				fd.teY = append(fd.teY, y[i])
			} else {
				fd.trX = append(fd.trX, x[i])
				fd.trY = append(fd.trY, y[i])
			}
		}
		if len(fd.trX) > 0 && len(fd.teX) > 0 {
			plan = append(plan, fd)
		}
	}
	return plan
}

// heldGroups lists the group held out by each leave-one-group-out fold,
// in first-seen order, or nil with fewer than 3 distinct groups. With
// many groups the fold count is capped at 10 (every k-th group is held
// out) to bound refit cost for large sample sets.
func heldGroups(groups []string) []string {
	var order []string
	seen := map[string]bool{}
	for _, g := range groups {
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	if len(order) < 3 {
		return nil
	}
	if len(order) > 10 {
		step := (len(order) + 9) / 10
		sampled := make([]string, 0, 10)
		for i := 0; i < len(order); i += step {
			sampled = append(sampled, order[i])
		}
		order = sampled
	}
	return order
}

// crossValidate fits model on each fold's train rows and returns the
// MAPE of its predictions on the held-out rows, pooled over folds: the
// absolute percentage errors are summed in stats.MAPE's order, zero
// truths skipped, and divided by nz, the plan's count of non-zero
// held-out truths. After a fold whose partial sum already puts the
// MAPE above bound it stops and returns that partial MAPE, which is
// above bound and at most the full one.
func crossValidate(model Regressor, plan []fold, nz int, bound float64) (float64, error) {
	if len(plan) == 0 {
		return 0, ErrNoData
	}
	var sum float64
	for _, fd := range plan {
		if err := model.Fit(fd.trX, fd.trY); err != nil {
			return 0, err
		}
		for i, row := range fd.teX {
			if truth := fd.teY[i]; truth != 0 {
				sum += math.Abs(model.Predict(row)-truth) / math.Abs(truth)
			}
		}
		if cv := sum / float64(nz); cv > bound {
			return cv, nil
		}
	}
	if nz == 0 {
		return 0, nil
	}
	return sum / float64(nz), nil
}

// reselectGrowth is the sample growth between model selections:
// Refit selects anew once the learner holds reselectGrowth times the
// samples of its last selection, and refits the incumbent family in
// between.
const reselectGrowth = 1.5

// refitEvery is the incremental learner's refit cadence: AddGrouped
// refits at the first sample and then every refitEvery new samples.
const refitEvery = 5

// Incremental wraps a model-selected regressor and accumulates new
// samples, refitting when enough arrive — the paper's incremental
// update path that drives Fig. 12's error-vs-samples curve.
type Incremental struct {
	x       [][]float64
	y       []float64
	groups  []string
	seed    uint64
	pending int
	current SelectResult
	// selectedAt is the sample count at the last model selection, 0
	// before the first one over at least minCVSamples samples (the
	// 1-nearest-neighbour fallback is not a selection).
	selectedAt int
	// refits counts every Refit; selections those that ran a model
	// selection.
	refits, selections int
}

// NewIncremental returns an empty incremental learner.
func NewIncremental(seed uint64) *Incremental {
	return &Incremental{seed: seed}
}

// N returns the number of accumulated samples.
func (inc *Incremental) N() int { return len(inc.x) }

// ModelName returns the currently selected family, or "" before the
// first fit.
func (inc *Incremental) ModelName() string { return inc.current.Name }

// Refits returns how many refits the learner has run and how many of
// them ran a model selection.
func (inc *Incremental) Refits() (refits, selections int) { return inc.refits, inc.selections }

// AddGrouped appends a sample with its group label for
// leave-one-group-out model selection (see SelectModelGrouped) and
// refits if the refit threshold is reached. It returns true when a
// refit happened.
func (inc *Incremental) AddGrouped(x []float64, y float64, group string) (refitted bool, err error) {
	inc.AddNoRefitGrouped(x, y, group)
	if inc.current.Model == nil || inc.pending >= refitEvery {
		if err := inc.Refit(); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// AddNoRefitGrouped appends a sample with its group label without
// refitting — batch-ingest path; call Refit once afterwards.
func (inc *Incremental) AddNoRefitGrouped(x []float64, y float64, group string) {
	inc.x = append(inc.x, append([]float64(nil), x...))
	inc.y = append(inc.y, y)
	inc.groups = append(inc.groups, group)
	inc.pending++
}

// Refit refits the learner on all accumulated samples. It runs a model
// selection (Select) when there has been none yet or the sample count
// has reached reselectGrowth times the count at the last one;
// otherwise it fits a fresh instance of the incumbent family alone.
// That is exactly the fit a selection returns when it picks the
// incumbent again (same constructor, seed and samples), so the
// schedule changes the model only where another family would have won.
func (inc *Incremental) Refit() error {
	if inc.selectedAt == 0 || float64(len(inc.x)) >= reselectGrowth*float64(inc.selectedAt) {
		return inc.Select()
	}
	m := newFamily(inc.current.Name, inc.seed)
	if m == nil || m.Fit(inc.x, inc.y) != nil {
		return inc.Select()
	}
	if sh, ok := m.(scratchHolder); ok {
		sh.dropScratch()
	}
	inc.current.Model = m
	inc.pending = 0
	inc.refits++
	return nil
}

// Select re-runs model selection over all accumulated samples,
// cross-validating the current family first.
func (inc *Incremental) Select() error {
	res, err := SelectModelGrouped(inc.x, inc.y, inc.groups, inc.seed, inc.current.Name)
	if err != nil {
		return err
	}
	inc.current = res
	inc.pending = 0
	inc.refits++
	if len(inc.x) >= minCVSamples {
		inc.selectedAt = len(inc.x)
		inc.selections++
	}
	return nil
}

// Predict evaluates the current model; it returns 0 with ok=false
// before any fit has happened.
func (inc *Incremental) Predict(x []float64) (float64, bool) {
	if inc.current.Model == nil {
		return 0, false
	}
	return inc.current.Model.Predict(x), true
}
