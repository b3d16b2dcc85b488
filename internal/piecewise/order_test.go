package piecewise

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomCurve draws a curve Validate accepts: mostly falling segments,
// now and then a rising or flat one, knees anywhere in (0, 1], now and
// then below the 1% floor or above maxDelta, at latency scales from
// tens of µs to seconds. Each oddity is drawn on its own, so they meet.
func randomCurve(rng *rand.Rand) Func {
	scale := math.Pow(10, 4*rng.Float64()-2)
	f := Func{
		K1:     -scale * 400 * rng.Float64(),
		K2:     -scale * 20 * rng.Float64(),
		Cutoff: 0.02 + 0.96*rng.Float64(),
		L0:     scale * (0.1 + 5*rng.Float64()),
	}
	if rng.Intn(10) == 0 {
		f.K1 = -f.K1
	}
	switch rng.Intn(10) {
	case 0:
		f.K2 = -f.K2
	case 1:
		f.K2 = 0
	}
	switch rng.Intn(10) {
	case 0:
		f.Cutoff = 0.001 + 0.019*rng.Float64()
	case 1:
		f.Cutoff = 0.9 + 0.1*rng.Float64()
	}
	return f
}

// budgetWalk returns increasing budgets around f's branch boundaries:
// 32 adjacent floats on each side of the 1% floor's latency, the knee's,
// maxDelta's and a random Δ's, and a spread of budgets between.
func budgetWalk(rng *rand.Rand, f Func, maxDelta float64) []float64 {
	var bs []float64
	for _, p := range []float64{f.Eval(0.01), f.L0, f.Eval(min(maxDelta, 1)), f.Eval(rng.Float64())} {
		b := p
		for range 32 {
			b = math.Nextafter(b, 0)
		}
		for range 64 {
			bs = append(bs, b)
			b = math.Nextafter(b, math.Inf(1))
		}
	}
	for range 16 {
		bs = append(bs, f.Eval(rng.Float64())*(0.5+rng.Float64()))
	}
	slices.Sort(bs)
	return slices.Compact(bs)
}

// solveBranch names the branch of MinDeltaFor that returned d at
// budget b, and whether it accepted a Δ only through the budget·(1+1e-9)
// slack.
func solveBranch(f Func, b, maxDelta, d float64) (branch string, slack bool) {
	maxDelta = min(maxDelta, 1)
	switch {
	case d == 0.01 && f.Eval(0.01) <= b:
		return "floor", false
	case f.K1 < 0 && d < f.Cutoff && d == f.Cutoff+(b-f.L0)/f.K1:
		return "steep", f.Eval(d) > b
	case f.L0 <= b && d == clamp(f.Cutoff, 0.01, maxDelta):
		return "knee", false
	case f.K2 < 0 && d > f.Cutoff && d == clamp(f.Cutoff+(b-f.L0)/f.K2, 0.01, maxDelta):
		return "shallow", f.Eval(d) > b
	}
	return "bisection", false
}

// TestMinDeltaForRisesAtTheFloor pins MinDeltaFor's counterexample to
// "Δ never rises as the budget grows": at the float where the steep
// solve drops below 1% while Eval(1%) still exceeds the budget, the
// solve falls through to the knee. MinDeltaBound stays below both.
func TestMinDeltaForRisesAtTheFloor(t *testing.T) {
	f := Func{K1: -95, K2: -4, Cutoff: 0.09, L0: 4}
	lower, higher := 11.599999999999998, 11.6
	if math.Nextafter(lower, math.Inf(1)) != higher {
		t.Fatal("the budgets are not adjacent floats")
	}
	d1, ok1 := f.MinDeltaFor(lower, 0.9)
	d2, ok2 := f.MinDeltaFor(higher, 0.9)
	if !ok1 || !ok2 || d1 != 0.010000000000000023 || d2 != 0.09 {
		t.Fatalf("MinDeltaFor = %v, %v at %v and %v, %v at %v; want 0.010000000000000023 then 0.09",
			d1, ok1, lower, d2, ok2, higher)
	}
	if b := f.MinDeltaBound(higher, 0.9); b > d1 {
		t.Fatalf("MinDeltaBound(%v) = %v, above the solve %v at the lower budget", higher, b, d1)
	}
}

// TestMinDeltaBoundBelowLowerBudgets checks MinDeltaBound's contract
// over random curves, rising segments included, and budgets walked
// float by float across every branch boundary: the bound at a budget
// never exceeds an ok solve at that budget or any lower one, and once
// a solve is ok it stays ok as the budget grows. It also checks that
// the walk reaches every branch of MinDeltaFor, its acceptance slack
// and its not-ok → ok flip; that every rise of MinDeltaFor is at the
// 1% floor (TestMinDeltaForRisesAtTheFloor); and that for falling
// curves above Eval's latency floor the bound is within 1e-6 of the
// solve at nearly every budget, so it prunes.
func TestMinDeltaBoundBelowLowerBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	solves, tight := 0, 0
	// Hand-picked curves where both slopes rise, with the knee below
	// and above the 1% floor, then random ones.
	fixed := []Func{
		{K1: 50, K2: 30, Cutoff: 0.005, L0: 2},
		{K1: 50, K2: 30, Cutoff: 0.3, L0: 2},
		{K1: -50, K2: 30, Cutoff: 0.005, L0: 2},
	}
	for i := range 20000 {
		f := randomCurve(rng)
		if i < len(fixed) {
			f = fixed[i]
		}
		maxDelta := []float64{0.9, 1, 0.5}[rng.Intn(3)]
		// Falling curves that stay above Eval's latency floor.
		falling := f.K1 <= 0 && f.K2 <= 0 && f.Eval(1) > 1e-6
		lowest, wasOK, prev := math.Inf(1), false, 0.0
		for _, b := range budgetWalk(rng, f, maxDelta) {
			d, ok := f.MinDeltaFor(b, maxDelta)
			if wasOK && !ok {
				t.Fatalf("%v: ok at a lower budget, not ok at %v", f, b)
			}
			if !ok {
				continue
			}
			if !wasOK {
				seen["flip"]++
			}
			branch, slack := solveBranch(f, b, maxDelta, d)
			seen[branch]++
			if slack {
				seen["slack"]++
			}
			if wasOK && d > prev && prev > 0.01*(1+1e-12) {
				t.Fatalf("%v: MinDeltaFor rises from %v to %v at budget %v, away from the 1%% floor", f, prev, d, b)
			} else if wasOK && d > prev {
				seen["rise"]++
			}
			lowest = min(lowest, d)
			bound := f.MinDeltaBound(b, maxDelta)
			if bound > lowest {
				t.Fatalf("%v maxDelta %v: MinDeltaBound(%v) = %v, above the solve %v at a budget ≤ it", f, maxDelta, b, bound, lowest)
			}
			if falling {
				solves++
				if d-bound <= 1e-6 {
					tight++
				}
			}
			wasOK, prev = true, d
		}
	}
	t.Logf("ok solves by branch: %v; falling curves' bound within 1e-6 at %d of %d", seen, tight, solves)
	for _, k := range []string{"floor", "steep", "knee", "shallow", "bisection", "slack", "flip", "rise"} {
		if seen[k] == 0 {
			t.Errorf("the walk never reached %s", k)
		}
	}
	if float64(tight) < 0.99*float64(solves) {
		t.Errorf("the bound is within 1e-6 of the solve at only %d of %d falling-curve solves", tight, solves)
	}
}
