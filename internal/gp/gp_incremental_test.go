package gp

import (
	"math"
	"testing"

	"mudi/internal/fit"
	"mudi/internal/xrand"
)

// refitReference rebuilds chol/alpha/yMean from scratch with the exact
// arithmetic the pre-incremental implementation used: the ordered y
// sum, the full kernel matrix, fit.Cholesky, fit.CholSolve.
func refitReference(g *GP) (yMean float64, chol [][]float64, alpha []float64, err error) {
	n := len(g.xs)
	for _, y := range g.ys {
		yMean += y
	}
	yMean /= float64(n)
	k := make([][]float64, n)
	for i := 0; i < n; i++ {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := g.kernel(g.xs[i], g.xs[j])
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += g.noiseVar
	}
	chol, err = fit.Cholesky(k)
	if err != nil {
		return 0, nil, nil, err
	}
	centered := make([]float64, n)
	for i, y := range g.ys {
		centered[i] = y - yMean
	}
	alpha = fit.CholSolve(chol, centered)
	return yMean, chol, alpha, nil
}

// TestObserveBitIdenticalToRefit is the incremental-Cholesky property
// test: across randomized observation sequences and hyperparameters,
// every Observe (the first included) must leave chol, alpha, and yMean
// bit-identical to a from-scratch refit. Comparison is by != on the
// float bits — no tolerance.
func TestObserveBitIdenticalToRefit(t *testing.T) {
	rng := xrand.New(0xbeefcafe)
	for seq := 0; seq < 20; seq++ {
		g := New()
		g.lengthScale, g.signalVar = rng.Range(0.5, 2), rng.Range(0.5, 2)
		steps := 5 + rng.Intn(25)
		for step := 0; step < steps; step++ {
			x := rng.Range(-4, 10)
			y := rng.Range(-5, 50)
			if err := g.Observe(x, y); err != nil {
				t.Fatalf("seq %d step %d: %v", seq, step, err)
			}
			wantMean, wantChol, wantAlpha, err := refitReference(g)
			if err != nil {
				t.Fatalf("seq %d step %d reference: %v", seq, step, err)
			}
			if g.yMean != wantMean {
				t.Fatalf("seq %d step %d: yMean %v != %v", seq, step, g.yMean, wantMean)
			}
			if len(g.alpha) != len(wantAlpha) {
				t.Fatalf("seq %d step %d: alpha len %d != %d", seq, step, len(g.alpha), len(wantAlpha))
			}
			for i := range wantAlpha {
				if g.alpha[i] != wantAlpha[i] {
					t.Fatalf("seq %d step %d: alpha[%d] %v != %v", seq, step, i, g.alpha[i], wantAlpha[i])
				}
			}
			// Incremental rows are ragged; compare the lower triangle,
			// which is all either factorization defines.
			for i := range wantChol {
				for j := 0; j <= i; j++ {
					if g.chol[i][j] != wantChol[i][j] {
						t.Fatalf("seq %d step %d: chol[%d][%d] %v != %v", seq, step, i, j, g.chol[i][j], wantChol[i][j])
					}
				}
			}
		}
	}
}

func TestObserveRollsBackOnNonPD(t *testing.T) {
	g := New()
	// Hostile hyperparameters: New never sets a zero noise floor, so
	// force a non-PD append by duplicating a point with a
	// noise variance small enough to underflow the diagonal.
	g.noiseVar = 5e-324
	if err := g.Observe(1, 2); err != nil {
		t.Fatal(err)
	}
	n, yMean := len(g.xs), g.yMean
	if err := g.Observe(1, 2); err == nil {
		t.Skip("duplicate observation stayed PD at this noise floor")
	}
	if len(g.xs) != n || g.yMean != yMean {
		t.Fatalf("failed Observe not rolled back: n %d→%d", n, len(g.xs))
	}
	// The GP must remain usable with its previous posterior.
	mean, _ := g.Predict(1)
	if math.Abs(mean-2) > 0.01 {
		t.Fatalf("posterior after rollback predicts %v at observed point, want ≈2", mean)
	}
}

func TestPredictWarmZeroAllocs(t *testing.T) {
	g := New()
	for i := 0; i < 8; i++ {
		if err := g.Observe(float64(i), math.Sin(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Predict(2.5) // warm the scratch buffers
	if n := testing.AllocsPerRun(200, func() { g.Predict(2.5) }); n != 0 {
		t.Fatalf("warm Predict allocates %v per run, want 0", n)
	}
}

// TestMinimizeMatchesMapImplementation locks the []bool evaluated-set
// rewrite to the original map-of-values semantics on a duplicate-laden
// candidate set: duplicates never reach full coverage, so evaluated
// candidates stay skipped and the search breaks once all are covered.
func TestMinimizeDuplicateCandidates(t *testing.T) {
	candidates := []float64{2, 2, 3, 3, 5}
	var seen []float64
	obj := func(x float64) (float64, bool) {
		seen = append(seen, x)
		return (x - 3) * (x - 3), true
	}
	res, err := Minimize(candidates, obj, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 3 {
		t.Fatalf("Best = %v, want 3", res.Best)
	}
	// Only 3 distinct values exist and re-evaluation never unlocks
	// (coverage is counted against len(candidates) = 5), so the
	// objective runs at most once per distinct value.
	if len(seen) > 3 {
		t.Fatalf("objective ran %d times over 3 distinct candidates: %v", len(seen), seen)
	}
	for i, a := range seen {
		for _, b := range seen[i+1:] {
			if a == b {
				t.Fatalf("candidate %v evaluated twice: %v", a, seen)
			}
		}
	}
}
