package gp

import (
	"math"
	"testing"

	"mudi/internal/xrand"
)

func TestGPPriorPrediction(t *testing.T) {
	g := New()
	g.signalVar = 2
	mean, v := g.Predict(0.5)
	if mean != 0 {
		t.Fatalf("prior mean = %v, want 0", mean)
	}
	if math.Abs(v-2) > 1e-9 {
		t.Fatalf("prior variance = %v, want 2", v)
	}
}

func TestGPInterpolatesObservations(t *testing.T) {
	g := New()
	points := map[float64]float64{0: 1, 1: 3, 2: 2}
	for x, y := range points {
		if err := g.Observe(x, y); err != nil {
			t.Fatal(err)
		}
	}
	for x, y := range points {
		mean, v := g.Predict(x)
		if math.Abs(mean-y) > 0.01 {
			t.Fatalf("posterior mean at %v = %v, want %v", x, mean, y)
		}
		if v > 0.01 {
			t.Fatalf("posterior variance at observed point %v = %v", x, v)
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	g := New()
	g.lengthScale = 0.5
	if err := g.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict(0.1)
	_, vFar := g.Predict(5)
	if vNear >= vFar {
		t.Fatalf("variance near (%v) not below far (%v)", vNear, vFar)
	}
	if math.Abs(vFar-1) > 0.01 {
		t.Fatalf("far variance %v should approach signal variance 1", vFar)
	}
}

func TestGPSmoothMeanBetweenPoints(t *testing.T) {
	g := New()
	g.Observe(0, 0)
	g.Observe(2, 2)
	mean, _ := g.Predict(1)
	if mean < 0.5 || mean > 1.5 {
		t.Fatalf("interpolated mean %v not between observations", mean)
	}
}

// TestGPDefaults pins New's hyperparameters, the ones every Tuner
// search runs with. The simulation's outputs depend on them (a 1e-4
// noise floor changes the benchmark's summary digests), yet no other
// test here would notice a change.
func TestGPDefaults(t *testing.T) {
	g := New()
	if g.lengthScale != 1 || g.signalVar != 1 || g.noiseVar != 1e-6 {
		t.Fatalf("New() hyperparameters %v/%v/%v, want 1/1/1e-6", g.lengthScale, g.signalVar, g.noiseVar)
	}
}

func TestMinimizeFindsQuadraticMinimum(t *testing.T) {
	candidates := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	calls := 0
	obj := func(x float64) (float64, bool) {
		calls++
		return (x - 5) * (x - 5), true
	}
	res, err := Minimize(candidates, obj, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("quadratic should be feasible")
	}
	if res.Best != 5 {
		t.Fatalf("Best = %v, want 5 (value %v after %d iters)", res.Best, res.BestValue, res.Iterations)
	}
	if res.Iterations > 25 {
		t.Fatalf("too many iterations: %d", res.Iterations)
	}
}

func TestMinimizeRespectsConstraints(t *testing.T) {
	// Minimum at 0 is infeasible; the best feasible candidate is 3.
	candidates := []float64{0, 1, 2, 3, 4, 5}
	obj := func(x float64) (float64, bool) {
		return x, x >= 3
	}
	res, err := Minimize(candidates, obj, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Best != 3 {
		t.Fatalf("Best = %v feasible=%v, want 3/true", res.Best, res.Feasible)
	}
}

func TestMinimizeAllInfeasible(t *testing.T) {
	obj := func(x float64) (float64, bool) { return x, false }
	res, err := Minimize([]float64{1, 2, 3}, obj, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("reported feasible with no feasible candidates")
	}
}

func TestMinimizeEmptyCandidates(t *testing.T) {
	if _, err := Minimize(nil, func(float64) (float64, bool) { return 0, true }, 25); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

func TestMinimizeConvergesUnderNoise(t *testing.T) {
	// Noisy non-monotonic objective (the paper's motivation for BO):
	// batch-size-like search space, minimum around 64.
	candidates := []float64{}
	for b := 4.0; b <= 10; b++ { // log2 space: 16..1024
		candidates = append(candidates, b)
	}
	rng := xrand.New(7)
	truth := func(x float64) float64 {
		return 10 + (x-6)*(x-6) + 0.6*math.Sin(3*x)
	}
	obj := func(x float64) (float64, bool) {
		return truth(x) * rng.LogNormal(0, 0.01), true
	}
	res, err := Minimize(candidates, obj, 25)
	if err != nil {
		t.Fatal(err)
	}
	// True minimum is near x = 6 (batch 64); accept a neighbour.
	if math.Abs(res.Best-6) > 1.01 {
		t.Fatalf("Best = %v, want near 6", res.Best)
	}
	if res.Iterations > 25 {
		t.Fatalf("iterations %d exceed paper bound 25", res.Iterations)
	}
}

func TestMinimizeIterationBudget(t *testing.T) {
	// Fig. 18a: convergence within 25 iterations across many runs.
	rng := xrand.New(99)
	candidates := []float64{4, 5, 6, 7, 8, 9}
	for run := 0; run < 50; run++ {
		center := candidates[rng.Intn(len(candidates))]
		obj := func(x float64) (float64, bool) {
			return (x-center)*(x-center) + rng.Normal(0, 0.05), true
		}
		res, err := Minimize(candidates, obj, 25)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 25 {
			t.Fatalf("run %d: %d iterations", run, res.Iterations)
		}
		if !res.Feasible {
			t.Fatalf("run %d infeasible", run)
		}
	}
}
