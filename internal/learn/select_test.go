package learn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mudi/internal/stats"
	"mudi/internal/xrand"
)

// referenceSelect is SelectModelGrouped's loop before the CV bound,
// kept verbatim apart from taking the candidate list: every family
// runs every fold, and the strictly lower pooled MAPE wins, so ties go
// to the earliest family in catalog order.
func referenceSelect(cands []Regressor, x [][]float64, y []float64, groups []string, folds int) (SelectResult, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return SelectResult{}, ErrNoData
	}
	if groups != nil && len(groups) != n {
		return SelectResult{}, fmt.Errorf("learn: %d groups for %d samples", len(groups), n)
	}
	if n < 4 {
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
	for _, cand := range cands {
		cv, err := referenceCrossValidate(cand, plan)
		if err != nil {
			continue
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

// referenceCrossValidate is crossValidate before the bound: every fold,
// then stats.MAPE over the pooled predictions.
func referenceCrossValidate(model Regressor, plan []fold) (float64, error) {
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

// failingFit wraps a family so that its k-th Fit call (counting from 1)
// fails.
type failingFit struct {
	Regressor
	k, calls int
}

func (f *failingFit) Fit(x [][]float64, y []float64) error {
	if f.calls++; f.calls == f.k {
		return errors.New("injected fit failure")
	}
	return f.Regressor.Fit(x, y)
}

// predictorShaped draws the Interference Predictor's sample shape:
// groups co-locations × 6 batch sizes, 11 integer layer counts that
// are constant within a co-location (the last two constant overall),
// plus log2(batch). Targets follow the features with noise, or are
// one of the target variants below.
func predictorShaped(rng *xrand.Rand, groups int, target targetKind) (x [][]float64, y []float64, labels []string) {
	for g := 0; g < groups; g++ {
		var layers [11]float64
		for j := range layers {
			switch {
			case j >= 9:
				layers[j] = float64(j)
			case j%3 == 0:
				layers[j] = float64(rng.Intn(3))
			default:
				layers[j] = float64(rng.Intn(40))
			}
		}
		label := fmt.Sprint(layers)
		for b := 0; b < 6; b++ {
			row := make([]float64, 12)
			copy(row, layers[:])
			row[11] = math.Log2(float64(int(4) << b))
			v := 1 + 0.05*layers[1] + 0.02*layers[2]*layers[4]/40 + 0.3*row[11] + rng.Range(0, 0.4)
			switch target {
			case someZero:
				if rng.Intn(4) == 0 {
					v = 0
				}
			case allZero:
				v = 0
			case constant:
				v = 2
			}
			x = append(x, row)
			y = append(y, v)
			labels = append(labels, label)
		}
	}
	return x, y, labels
}

type targetKind int

const (
	noisy    targetKind = iota
	someZero            // a quarter of the truths are 0, which MAPE skips
	allZero             // every MAPE is 0, so LR (catalog index 0) wins
	constant            // 2 everywhere: several families tie at MAPE 0
	numTargetKinds
)

// selectCase is one dataset for the bounded-vs-full comparison.
type selectCase struct {
	seed    uint64
	groups  int        // co-locations of 6 rows each
	rows    int        // keep only the first rows if > 0 (n < 4)
	grouped bool       // pass the group labels (else k-fold)
	target  targetKind // target variant
	failFam int        // family whose failK-th Fit fails; ≥ 5 for none
	failK   int
}

// matchesFullCV runs the reference selection once and the bounded one
// under every first hint, and reports the first difference in the
// winner, its CV error bits or its predictions on probe rows.
func (c selectCase) matchesFullCV(t *testing.T) bool {
	t.Helper()
	x, y, labels := predictorShaped(xrand.New(c.seed), c.groups, c.target)
	if c.rows > 0 {
		x, y, labels = x[:c.rows], y[:c.rows], labels[:c.rows]
	}
	var groups []string
	if c.grouped {
		groups = labels
	}
	cands := func() []Regressor {
		cs := Candidates(c.seed)
		if c.failFam < len(cs) {
			cs[c.failFam] = &failingFit{Regressor: cs[c.failFam], k: c.failK}
		}
		return cs
	}
	probes := append([][]float64(nil), x...)
	for _, row := range x[:min(len(x), 6)] {
		p := append([]float64(nil), row...)
		p[1]++
		p[11] += 0.5
		probes = append(probes, p)
	}
	want, wantErr := referenceSelect(cands(), x, y, groups, 0)
	for _, first := range []string{"", "LR", "kNN", "SVR", "RF", "GBRT", "none"} {
		got, err := selectAmong(cands(), x, y, groups, first)
		if (err != nil) != (wantErr != nil) {
			t.Logf("%+v first %q: err %v, reference %v", c, first, err, wantErr)
			return false
		}
		if err != nil {
			continue
		}
		if got.Name != want.Name || math.Float64bits(got.CVError) != math.Float64bits(want.CVError) {
			t.Logf("%+v first %q: %s %v, reference %s %v", c, first, got.Name, got.CVError, want.Name, want.CVError)
			return false
		}
		for k, p := range probes {
			if a, b := got.Model.Predict(p), want.Model.Predict(p); math.Float64bits(a) != math.Float64bits(b) {
				t.Logf("%+v first %q probe %d: %v != %v", c, first, k, a, b)
				return false
			}
		}
	}
	return true
}

// TestSelectBoundMatchesFullCV checks the bounded selection against
// the full cross-validation on predictor-shaped data, for every first
// hint (an unknown name included): the same family, the same CV error
// bits, and bit-equal predictions from the final fit.
func TestSelectBoundMatchesFullCV(t *testing.T) {
	prop := func(seed uint64, groups, target, fail uint8) bool {
		return selectCase{
			seed:    seed,
			groups:  1 + int(groups)%13, // k-fold below 3 groups, sampled folds above 10
			grouped: groups%5 != 0,
			target:  targetKind(target) % numTargetKinds,
			failFam: int(fail) % 8,
			failK:   1 + int(fail/8)%6,
		}.matchesFullCV(t)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]selectCase{
		"all-zero":        {seed: 1, groups: 6, grouped: true, target: allZero, failFam: 5},
		"constant":        {seed: 2, groups: 6, grouped: true, target: constant, failFam: 5},
		"zero-truths":     {seed: 3, groups: 12, grouped: true, target: someZero, failFam: 5},
		"n<4":             {seed: 4, groups: 1, rows: 3, grouped: true, failFam: 5},
		"k-fold":          {seed: 5, groups: 2, grouped: true, failFam: 5},
		"ungrouped":       {seed: 6, groups: 5, failFam: 5},
		"sampled-folds":   {seed: 7, groups: 13, grouped: true, failFam: 5},
		"gbrt-fails":      {seed: 8, groups: 8, grouped: true, failFam: 4, failK: 2},
		"lr-fails-first":  {seed: 9, groups: 8, grouped: true, failFam: 0, failK: 1},
		"final-fit-fails": {seed: 10, groups: 4, grouped: true, failFam: 4, failK: 5},
	} {
		if !c.matchesFullCV(t) {
			t.Fatalf("%s: bounded selection differs from full CV", name)
		}
	}
	// All-zero targets: every MAPE is 0, and the earliest family wins
	// even when another is cross-validated first.
	x, y, groups := predictorShaped(xrand.New(1), 6, allZero)
	res, err := SelectModelGrouped(x, y, groups, 1, "GBRT")
	if err != nil || res.Name != "LR" || res.CVError != 0 {
		t.Fatalf("all-zero targets: %s cv %v err %v, want LR at 0", res.Name, res.CVError, err)
	}
}

// TestMilestoneRefitMatchesFullSelection drives two learners over one
// predictor-shaped stream: a 36-row offline grid, then co-locations of
// 6 rows. The milestone learner refits as Incremental does; its twin
// runs a full selection at every refit. Wherever the two pick the same
// family, their models must predict every row bit for bit alike.
func TestMilestoneRefitMatchesFullSelection(t *testing.T) {
	incumbentOnly, flips := 0, 0
	for _, seed := range []uint64{1, 2, 3, 4} {
		x, y, groups := predictorShaped(xrand.New(seed), 6+20, noisy)
		milestone, forced := NewIncremental(seed), NewIncremental(seed)
		for i := 0; i < 36; i++ {
			milestone.AddNoRefitGrouped(x[i], y[i], groups[i])
			forced.AddNoRefitGrouped(x[i], y[i], groups[i])
		}
		if err := milestone.Select(); err != nil {
			t.Fatal(err)
		}
		if err := forced.Select(); err != nil {
			t.Fatal(err)
		}
		for i := 36; i < len(x); i++ {
			_, selectionsBefore := milestone.Refits()
			refitted, err := milestone.AddGrouped(x[i], y[i], groups[i])
			if err != nil {
				t.Fatal(err)
			}
			forced.AddNoRefitGrouped(x[i], y[i], groups[i])
			if !refitted {
				continue
			}
			if err := forced.Select(); err != nil {
				t.Fatal(err)
			}
			_, sel := milestone.Refits()
			selected := sel > selectionsBefore
			if !selected && milestone.ModelName() != forced.ModelName() {
				flips++
				t.Logf("seed %d, %d samples: incumbent %s, a selection picks %s",
					seed, i+1, milestone.ModelName(), forced.ModelName())
				continue
			}
			if !selected {
				incumbentOnly++
			}
			for j, row := range x {
				a, _ := milestone.Predict(row)
				b, _ := forced.Predict(row)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d, %d samples, %s: row %d predicts %v, a full selection %v",
						seed, i+1, milestone.ModelName(), j, a, b)
				}
			}
		}
	}
	t.Logf("%d incumbent-only refits matched a full selection, %d flipped family", incumbentOnly, flips)
	if incumbentOnly == 0 {
		t.Fatal("no incumbent-only refit was compared")
	}
}

// TestFallbackIsNotASelection feeds samples one at a time and refits
// after each. Below minCVSamples the learner holds the
// 1-nearest-neighbour fallback, which shares kNN's name but is no
// selection, so the first refit over enough samples must select: its
// model is the one a forced selection returns.
func TestFallbackIsNotASelection(t *testing.T) {
	inc, forced := NewIncremental(1), NewIncremental(1)
	for n := 1; n <= 8; n++ {
		a := float64(n*n%7) + 0.5*float64(n)
		inc.AddNoRefitGrouped([]float64{a}, 2*a+1, "")
		forced.AddNoRefitGrouped([]float64{a}, 2*a+1, "")
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
		if err := forced.Select(); err != nil {
			t.Fatal(err)
		}
		_, sel := inc.Refits()
		if n < minCVSamples {
			if sel != 0 || inc.ModelName() != "kNN" {
				t.Fatalf("%d samples: %s after %d selections, want the kNN fallback and none", n, inc.ModelName(), sel)
			}
			continue
		}
		if n == minCVSamples {
			if sel != 1 || inc.ModelName() != forced.ModelName() || inc.ModelName() == "kNN" {
				t.Fatalf("%d samples: %s after %d selections, a forced selection picks %s",
					n, inc.ModelName(), sel, forced.ModelName())
			}
			for _, probe := range []float64{0, 1.5, 4, 9} {
				p, _ := inc.Predict([]float64{probe})
				q, _ := forced.Predict([]float64{probe})
				if math.Float64bits(p) != math.Float64bits(q) {
					t.Fatalf("x=%v: first selection predicts %v, a forced selection %v", probe, p, q)
				}
			}
		}
	}
	if _, sel := inc.Refits(); sel != 2 {
		t.Fatalf("%d selections over 8 samples, want 2 (at 4 and 6)", sel)
	}
}
