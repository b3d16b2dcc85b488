package gp

import (
	"math"
	"testing"

	"mudi/internal/xrand"
)

// minimizeTwoLoop is the two-branch Minimize the single acquisition
// loop replaced, kept verbatim as the reference: a skip-evaluated loop
// while coverage is incomplete, and a separate sweep of the whole set
// into mus/vars once every distinct candidate has been evaluated. The
// GP is the one the Tuner used (length scale 1, signal variance 1,
// noise 1e-6), and the stop rule's tolerance and patience are the
// literals 0.01 and 3.
func minimizeTwoLoop(candidates []float64, obj Objective, maxIters int) (LCBResult, error) {
	if len(candidates) == 0 {
		return LCBResult{}, ErrNoCandidates
	}
	g := New()

	res := LCBResult{BestValue: math.Inf(1)}
	evaluated := make([]bool, len(candidates))
	covered := 0
	mus := make([]float64, len(candidates))
	vars := make([]float64, len(candidates))
	var worst float64
	sizeR := float64(len(candidates))
	staleRounds := 0

	for iter := 1; iter <= maxIters; iter++ {
		beta := 2 * math.Log(math.Max(sizeR/float64(iter*iter), 1.0001))
		sqrtBeta := math.Sqrt(beta)
		bestAcq := math.Inf(1)
		pick := candidates[0]
		pickIdx := -1
		found := false
		if covered >= len(candidates) {
			for i, c := range candidates {
				mus[i], vars[i] = g.Predict(c)
			}
			for i, c := range candidates {
				acq := mus[i] - sqrtBeta*math.Sqrt(vars[i])
				if acq < bestAcq {
					bestAcq, pick, pickIdx, found = acq, c, i, true
				}
			}
		} else {
			for i, c := range candidates {
				if evaluated[i] {
					continue
				}
				mu, v := g.Predict(c)
				acq := mu - sqrtBeta*math.Sqrt(v)
				if acq < bestAcq {
					bestAcq, pick, pickIdx, found = acq, c, i, true
				}
			}
		}
		if !found {
			break
		}
		value, feasible := obj(pick)
		if !evaluated[pickIdx] {
			covered++
			for j, c := range candidates {
				if c == pick {
					evaluated[j] = true
				}
			}
		}
		res.Iterations = iter

		improved := false
		if feasible {
			if value > worst {
				worst = value
			}
			if value < res.BestValue*(1-0.01) || !res.Feasible {
				improved = true
			}
			if value < res.BestValue {
				res.Best, res.BestValue = pick, value
			}
			res.Feasible = true
			if err := g.Observe(pick, value); err != nil {
				return res, err
			}
		} else {
			penalty := worst
			if penalty == 0 {
				penalty = math.Abs(value)
			}
			if err := g.Observe(pick, penalty*1.5+1); err != nil {
				return res, err
			}
		}

		if improved {
			staleRounds = 0
		} else if res.Feasible {
			staleRounds++
			if staleRounds >= 3 {
				break
			}
		}
	}
	return res, nil
}

// TestMinimizeMatchesTwoLoopReference runs Minimize and the two-branch
// reference on the same randomized problems — random smooth and rugged
// objectives, duplicate-laden candidate sets, all-infeasible sets and
// noisy objectives that re-seed identically for each side — and
// requires the same probe sequence and a bit-identical LCBResult. Runs
// that re-evaluate a candidate exercise the exhausted-set sweep; the
// test fails if too few do.
func TestMinimizeMatchesTwoLoopReference(t *testing.T) {
	rng := xrand.New(0x5eed1cb)
	exhausted := 0
	for run := 0; run < 400; run++ {
		n := 1 + rng.Intn(10)
		candidates := make([]float64, n)
		for i := range candidates {
			candidates[i] = float64(2 + rng.Intn(9))
		}
		if run%4 == 0 { // the Tuner's shape: a distinct log2 ladder
			for i := range candidates {
				candidates[i] = float64(i + 4)
			}
		}
		center, scale := rng.Range(2, 11), rng.Range(0.1, 5)
		wiggle, noise := rng.Range(0, 2), 0.0
		if run%3 == 0 {
			noise = rng.Range(0.01, 0.5)
		}
		cut := rng.Range(0, 12) // feasible iff x >= cut
		if run%5 == 0 {
			cut = math.Inf(1)
		}
		seed := rng.Uint64()
		maxIters := 1 + rng.Intn(30)

		probe := func(seen *[]float64) Objective {
			noiseRng := xrand.New(seed)
			return func(x float64) (float64, bool) {
				*seen = append(*seen, x)
				v := scale*(x-center)*(x-center) + wiggle*math.Sin(3*x)
				v += noiseRng.Normal(0, noise)
				return v, x >= cut
			}
		}
		var gotSeen, wantSeen []float64
		got, gotErr := Minimize(candidates, probe(&gotSeen), maxIters)
		want, wantErr := minimizeTwoLoop(candidates, probe(&wantSeen), maxIters)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("run %d: error %v, reference %v", run, gotErr, wantErr)
		}
		if len(gotSeen) != len(wantSeen) {
			t.Fatalf("run %d (candidates %v, maxIters %d): %d probes %v, reference %d %v",
				run, candidates, maxIters, len(gotSeen), gotSeen, len(wantSeen), wantSeen)
		}
		for i := range wantSeen {
			if gotSeen[i] != wantSeen[i] {
				t.Fatalf("run %d: probe %d = %v, reference %v", run, i, gotSeen[i], wantSeen[i])
			}
		}
		if got != want && !(math.IsNaN(got.BestValue) && math.IsNaN(want.BestValue)) {
			t.Fatalf("run %d: result %+v, reference %+v", run, got, want)
		}
		distinct := map[float64]bool{}
		for _, c := range candidates {
			distinct[c] = true
		}
		if len(gotSeen) > len(distinct) {
			exhausted++
		}
	}
	if exhausted < 20 {
		t.Fatalf("only %d runs re-evaluated a candidate; the exhausted-set sweep is barely exercised", exhausted)
	}
}
