package learn

import (
	"fmt"
	"math"

	"mudi/internal/stats"
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

// SelectResult reports the winning model of a cross-validation.
type SelectResult struct {
	Model   Regressor
	Name    string
	CVError float64 // mean absolute percentage error across folds
}

// SelectModelGrouped fits every candidate with cross-validation and
// returns the one with the lowest CV error, refitted on the full
// dataset — the per-metric model selection of §4.1.2. It holds out by
// group: samples sharing a group label (e.g. the same co-located
// architecture at different batch sizes) are held out together, so the
// CV score measures generalization to *new* architectures rather than
// interpolation across batch sizes. With nil/uniform groups it falls
// back to k-fold; folds defaults to min(5, n).
func SelectModelGrouped(x [][]float64, y []float64, groups []string, folds int, seed uint64) (SelectResult, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return SelectResult{}, ErrNoData
	}
	if groups != nil && len(groups) != n {
		return SelectResult{}, fmt.Errorf("learn: %d groups for %d samples", len(groups), n)
	}
	if n < 4 {
		// Too few samples for cross-validation: fall back to a nearest
		// neighbour model, which is well-defined from one sample on.
		m := NewKNN(1)
		if err := m.Fit(x, y); err != nil {
			return SelectResult{}, err
		}
		return SelectResult{Model: m, Name: m.Name()}, nil
	}
	if folds <= 1 || folds > n {
		folds = 5
		if folds > n {
			folds = n
		}
	}
	plan := foldPlan(x, y, groups, folds)
	best := SelectResult{CVError: math.Inf(1)}
	for _, cand := range Candidates(seed) {
		cv, err := crossValidate(cand, plan)
		if err != nil {
			continue // a family that cannot fit this data is simply skipped
		}
		if cv < best.CVError {
			best = SelectResult{Model: cand, Name: cand.Name(), CVError: cv}
		}
	}
	if best.Model == nil {
		return SelectResult{}, fmt.Errorf("learn: no candidate model could fit %d samples", n)
	}
	if err := best.Model.Fit(x, y); err != nil {
		return SelectResult{}, err
	}
	return best, nil
}

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
// MAPE of its predictions on the held-out rows, pooled over folds.
func crossValidate(model Regressor, plan []fold) (float64, error) {
	var preds, truths []float64
	for _, fd := range plan {
		if err := model.Fit(fd.trX, fd.trY); err != nil {
			return 0, err
		}
		for i, row := range fd.teX {
			preds = append(preds, model.Predict(row))
			truths = append(truths, fd.teY[i])
		}
	}
	if len(preds) == 0 {
		return 0, ErrNoData
	}
	return stats.MAPE(preds, truths), nil
}

// Incremental wraps a model-selected regressor and accumulates new
// samples, refitting when enough arrive — the paper's incremental
// update path that drives Fig. 12's error-vs-samples curve.
type Incremental struct {
	x       [][]float64
	y       []float64
	groups  []string
	seed    uint64
	refitAt int // refit every refitAt new samples; default 5
	pending int
	current SelectResult
}

// NewIncremental returns an empty incremental learner.
func NewIncremental(seed uint64) *Incremental {
	return &Incremental{seed: seed, refitAt: 5}
}

// N returns the number of accumulated samples.
func (inc *Incremental) N() int { return len(inc.x) }

// ModelName returns the currently selected family, or "" before the
// first fit.
func (inc *Incremental) ModelName() string { return inc.current.Name }

// Model returns the currently selected model, or nil before the first
// fit.
func (inc *Incremental) Model() Regressor { return inc.current.Model }

// Add appends a sample and refits if the refit threshold is reached.
// It returns true when a refit happened.
func (inc *Incremental) Add(x []float64, y float64) (refitted bool, err error) {
	return inc.AddGrouped(x, y, "")
}

// AddGrouped is Add with a group label for leave-one-group-out model
// selection (see SelectModelGrouped).
func (inc *Incremental) AddGrouped(x []float64, y float64, group string) (refitted bool, err error) {
	inc.x = append(inc.x, append([]float64(nil), x...))
	inc.y = append(inc.y, y)
	inc.groups = append(inc.groups, group)
	inc.pending++
	if inc.current.Model == nil || inc.pending >= inc.refitAt {
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

// Refit re-runs model selection over all accumulated samples.
func (inc *Incremental) Refit() error {
	res, err := SelectModelGrouped(inc.x, inc.y, inc.groups, 0, inc.seed)
	if err != nil {
		return err
	}
	inc.current = res
	inc.pending = 0
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
