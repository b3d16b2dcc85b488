package learn

import (
	"errors"
	"math"
	"testing"

	"mudi/internal/stats"
	"mudi/internal/xrand"
)

// synthDataset generates n samples of a mildly nonlinear function of 3
// features with optional noise.
func synthDataset(n int, noise float64, seed uint64) (x [][]float64, y []float64) {
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		a, b, c := rng.Range(0, 1), rng.Range(0, 1), rng.Range(0, 1)
		target := 3*a + 2*b*b - c + 0.5*a*b
		if noise > 0 {
			target += rng.Normal(0, noise)
		}
		x = append(x, []float64{a, b, c})
		y = append(y, target)
	}
	return x, y
}

// testErr is m's root-mean-square error on (x, y).
func testErr(t *testing.T, m Regressor, x [][]float64, y []float64) float64 {
	t.Helper()
	var sum float64
	for i := range x {
		d := m.Predict(x[i]) - y[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(x)))
}

func TestLinearExact(t *testing.T) {
	// y = 1 + 2a - b: linear regression must recover it exactly.
	rng := xrand.New(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a, b := rng.Range(0, 1), rng.Range(0, 1)
		x = append(x, []float64{a, b})
		y = append(y, 1+2*a-b)
	}
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5, 0.5}); math.Abs(got-1.5) > 1e-6 {
		t.Fatalf("Predict = %v, want 1.5", got)
	}
}

func TestAllModelsFitSynthetic(t *testing.T) {
	trainX, trainY := synthDataset(120, 0.02, 10)
	testX, testY := synthDataset(40, 0, 11)
	for _, m := range Candidates(7) {
		if err := m.Fit(trainX, trainY); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if e := testErr(t, m, testX, testY); e > 0.5 {
			t.Fatalf("%s: test RMSE %v too high", m.Name(), e)
		}
	}
}

func TestModelsRejectEmptyAndRagged(t *testing.T) {
	for _, m := range Candidates(1) {
		if err := m.Fit(nil, nil); err == nil {
			t.Fatalf("%s accepted empty dataset", m.Name())
		}
		if err := m.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
			t.Fatalf("%s accepted ragged dataset", m.Name())
		}
	}
}

// TestModelsRejectNonFinite fits every family on data with one NaN or
// infinite input or target: each must fail with ErrNonFinite.
func TestModelsRejectNonFinite(t *testing.T) {
	for _, m := range Candidates(1) {
		t.Run(m.Name(), func(t *testing.T) {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, inTarget := range []bool{false, true} {
					x, y := synthDataset(20, 0.1, 3)
					if inTarget {
						y[7] = bad
					} else {
						x[7][1] = bad
					}
					if err := m.Fit(x, y); !errors.Is(err, ErrNonFinite) {
						t.Fatalf("%v in target=%v: got %v, want ErrNonFinite", bad, inTarget, err)
					}
				}
			}
		})
	}
}

func TestUntrainedPredictsZero(t *testing.T) {
	for _, m := range Candidates(1) {
		if got := m.Predict([]float64{1, 2, 3}); got != 0 {
			t.Fatalf("%s untrained Predict = %v, want 0", m.Name(), got)
		}
	}
}

func TestKNNInterpolates(t *testing.T) {
	m := NewKNN(1)
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{10, 20, 30}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Nearest neighbour of 0.9 is 1.
	if got := m.Predict([]float64{0.9}); math.Abs(got-20) > 1e-6 {
		t.Fatalf("kNN(0.9) = %v, want 20", got)
	}
}

func TestKNNDefaultsK(t *testing.T) {
	m := NewKNN(0)
	if err := m.Fit([][]float64{{0}, {1}, {2}, {3}}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if m.K != 3 {
		t.Fatalf("K defaulted to %d, want 3", m.K)
	}
}

func TestKernelRidgeInterpolatesTrainPoints(t *testing.T) {
	m := NewKernelRidge(2, 1e-6)
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{1, 4, 2}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := m.Predict(x[i]); math.Abs(got-y[i]) > 0.05 {
			t.Fatalf("KRR at train point %d: %v, want %v", i, got, y[i])
		}
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	x, y := synthDataset(60, 0.05, 20)
	a := NewForest(10, 99)
	b := NewForest(10, 99)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.6, 0.2}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("forest not deterministic under fixed seed")
	}
}

func TestForestHandlesConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	m := NewForest(5, 1)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1.5}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("constant-target forest predicted %v", got)
	}
}

func TestSelectModelPicksLinearForLinearData(t *testing.T) {
	rng := xrand.New(33)
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		a, b := rng.Range(0, 1), rng.Range(0, 1)
		x = append(x, []float64{a, b})
		y = append(y, 4+3*a-2*b)
	}
	res, err := selectAmong(Candidates(1), x, y, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "LR" {
		t.Fatalf("selected %s for exactly linear data (cv=%v)", res.Name, res.CVError)
	}
	if res.CVError > 0.01 {
		t.Fatalf("CV error %v too high for noiseless linear data", res.CVError)
	}
}

func TestSelectModelEmpty(t *testing.T) {
	if _, err := selectAmong(Candidates(1), nil, nil, nil, ""); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestSelectModelGeneralizes(t *testing.T) {
	trainX, trainY := synthDataset(100, 0.05, 40)
	res, err := selectAmong(Candidates(2), trainX, trainY, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := synthDataset(30, 0, 41)
	if e := testErr(t, res.Model, testX, testY); e > 0.3 {
		t.Fatalf("selected model %s RMSE %v too high", res.Name, e)
	}
}

// addRefit adds one sample to inc and refits it when a refit is due,
// as the predictor does for every profile; it reports whether it
// refitted.
func addRefit(inc *Incremental, x []float64, y float64, group string) (bool, error) {
	inc.Add(x, y, group)
	if !inc.RefitDue() {
		return false, nil
	}
	return true, inc.Refit()
}

func TestIncrementalImprovesWithSamples(t *testing.T) {
	// Fig. 12's shape: prediction error decreases as samples accumulate.
	rng := xrand.New(50)
	gen := func() ([]float64, float64) {
		a, b, c := rng.Range(0, 1), rng.Range(0, 1), rng.Range(0, 1)
		return []float64{a, b, c}, 3*a + 2*b*b - c + rng.Normal(0, 0.05)
	}
	inc := NewIncremental(3)
	measure := func() float64 {
		testX, testY := synthDataset(50, 0, 51)
		preds := make([]float64, len(testX))
		for i := range testX {
			p, ok := inc.Predict(testX[i])
			if !ok {
				t.Fatal("predict before fit")
			}
			preds[i] = p
		}
		return stats.MAPE(preds, testY)
	}
	for i := 0; i < 10; i++ {
		x, y := gen()
		if _, err := addRefit(inc, x, y, ""); err != nil {
			t.Fatal(err)
		}
	}
	early := measure()
	for i := 0; i < 80; i++ {
		x, y := gen()
		if _, err := addRefit(inc, x, y, ""); err != nil {
			t.Fatal(err)
		}
	}
	late := measure()
	if late >= early {
		t.Fatalf("incremental error did not improve: early=%v late=%v", early, late)
	}
	if inc.N() != 90 {
		t.Fatalf("N = %d, want 90", inc.N())
	}
	if inc.ModelName() == "" {
		t.Fatal("no model selected")
	}
}

func TestIncrementalPredictBeforeFit(t *testing.T) {
	inc := NewIncremental(1)
	if _, ok := inc.Predict([]float64{1}); ok {
		t.Fatal("Predict before any sample should report not-ok")
	}
}

func TestIncrementalRefitCadence(t *testing.T) {
	inc := NewIncremental(1)
	refits := 0
	rng := xrand.New(60)
	for i := 0; i < 11; i++ {
		r, err := addRefit(inc, []float64{rng.Float64(), rng.Float64()}, rng.Float64(), "")
		if err != nil {
			t.Fatal(err)
		}
		if r {
			refits++
		}
	}
	// Refit on first sample, then every 5th: samples 1, 6, 11 => 3.
	if refits != 3 {
		t.Fatalf("refits = %d, want 3", refits)
	}
}

func TestGBRTFitsNonlinear(t *testing.T) {
	trainX, trainY := synthDataset(150, 0.02, 70)
	testX, testY := synthDataset(40, 0, 71)
	g := NewGBRT(80, 1)
	if err := g.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	if e := testErr(t, g, testX, testY); e > 0.3 {
		t.Fatalf("GBRT test RMSE %v", e)
	}
	// Boosting must clearly beat a single mean predictor.
	meanOnly := stats.Mean(trainY)
	var sse float64
	for _, y := range testY {
		d := y - meanOnly
		sse += d * d
	}
	baseline := math.Sqrt(sse / float64(len(testY)))
	if e := testErr(t, g, testX, testY); e > baseline/2 {
		t.Fatalf("GBRT RMSE %v not well below mean-predictor %v", e, baseline)
	}
}

func TestGBRTDeterministic(t *testing.T) {
	x, y := synthDataset(60, 0.05, 72)
	a, b := NewGBRT(20, 5), NewGBRT(20, 5)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.2, 0.7, 0.4}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("GBRT not deterministic under fixed seed")
	}
}

func TestCandidatesIncludeGBRT(t *testing.T) {
	found := false
	for _, c := range Candidates(1) {
		if c.Name() == "GBRT" {
			found = true
		}
	}
	if !found {
		t.Fatal("GBRT missing from the candidate zoo")
	}
}

// TestFamilyCatalog: the catalog's names are its models' Names, so
// newFamily builds the Candidates family a selection named, and an
// unknown name builds nothing.
func TestFamilyCatalog(t *testing.T) {
	for i, c := range Candidates(3) {
		if families[i].name != c.Name() {
			t.Fatalf("family %d is named %q, its model %q", i, families[i].name, c.Name())
		}
		if m := newFamily(c.Name(), 3); m == nil || m.Name() != c.Name() {
			t.Fatalf("newFamily(%q) = %v", c.Name(), m)
		}
	}
	if m := newFamily("none", 3); m != nil {
		t.Fatalf("newFamily of an unknown name = %v, want nil", m)
	}
}
