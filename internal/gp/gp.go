// Package gp implements Gaussian-process regression and the
// LCB-acquisition Bayesian optimizer that Mudi's Tuner uses for
// adaptive batching (§5.3.1): a GP surrogate over candidate batch
// sizes, the acquisition A(b) = μ(b) − β_n^{1/2}·σ(b) with
// β_n = 2·log(|R|/n²), and SLO-constraint filtering.
package gp

import (
	"errors"
	"fmt"
	"math"

	"mudi/internal/fit"
)

// GP is a Gaussian-process regressor with an RBF kernel over scalar
// inputs (the Tuner's search dimension is the batch size, mapped to
// log2 space by the caller).
type GP struct {
	lengthScale float64 // RBF length scale
	signalVar   float64 // kernel amplitude
	noiseVar    float64 // observation noise

	xs    []float64
	ys    []float64
	ySum  float64
	yMean float64
	chol  [][]float64
	alpha []float64

	// Scratch buffers reused across calls so warm Observe/Predict do not
	// allocate (beyond the factor row Observe must retain).
	kstarBuf, vBuf, rowBuf, centeredBuf, solveYBuf []float64
}

// New returns a GP with the Tuner's hyperparameters: unit length scale
// in log2-batch space, unit signal variance and a 1e-6 noise floor.
func New() *GP {
	return &GP{lengthScale: 1, signalVar: 1, noiseVar: 1e-6}
}

func (g *GP) kernel(a, b float64) float64 {
	d := (a - b) / g.lengthScale
	return g.signalVar * math.Exp(-0.5*d*d)
}

// growTo returns buf resized to n, reallocating only when capacity is
// exhausted. Contents are unspecified.
func growTo(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, 2*n)
	}
	return buf[:n]
}

// Observe adds one (x, y) observation and refits the posterior. The
// refit is an incremental rank-append Cholesky update: appending a row
// to the kernel matrix leaves the leading factor untouched, so only the
// new factor row is computed and the weights are re-solved against the
// extended factor — O(n²) instead of the from-scratch O(n³), with
// bit-identical chol/alpha (the append performs exactly the arithmetic
// the from-scratch factorization would for the same row). On a fit
// error the observation is rolled back, leaving the previous posterior
// intact.
func (g *GP) Observe(x, y float64) error {
	n := len(g.xs)
	prevSum := g.ySum
	g.xs = append(g.xs, x)
	g.ys = append(g.ys, y)
	g.ySum += y
	if err := g.appendFit(x); err != nil {
		g.xs = g.xs[:n]
		g.ys = g.ys[:n]
		g.ySum = prevSum
		return err
	}
	return nil
}

// appendFit extends the factor by one row for the just-appended point x
// and re-solves the weights. Kernel entries are computed in the same
// argument order as a from-scratch kernel matrix's last row, so the
// arithmetic — and therefore the factor — is bit-identical to a
// from-scratch rebuild.
func (g *GP) appendFit(x float64) error {
	n := len(g.xs)
	g.yMean = g.ySum / float64(n)
	g.rowBuf = growTo(g.rowBuf, n)
	for i := 0; i < n-1; i++ {
		g.rowBuf[i] = g.kernel(x, g.xs[i])
	}
	g.rowBuf[n-1] = g.kernel(x, x) + g.noiseVar
	row, err := fit.CholeskyAppend(g.chol, g.rowBuf)
	if err != nil {
		return fmt.Errorf("gp: posterior fit: %w", err)
	}
	g.chol = append(g.chol, row)
	return g.resolve()
}

// resolve recomputes alpha = K⁻¹(y − ȳ) against the current factor.
func (g *GP) resolve() error {
	n := len(g.xs)
	g.centeredBuf = growTo(g.centeredBuf, n)
	for i, y := range g.ys {
		g.centeredBuf[i] = y - g.yMean
	}
	g.solveYBuf = growTo(g.solveYBuf, n)
	g.alpha = growTo(g.alpha, n)
	fit.CholSolveInto(g.chol, g.centeredBuf, g.solveYBuf, g.alpha)
	return nil
}

// Predict returns the posterior mean and variance at x. With no
// observations it returns the prior (0 mean is replaced by 0, variance
// = signal variance). Warm calls reuse internal scratch buffers and do
// not allocate.
func (g *GP) Predict(x float64) (mean, variance float64) {
	n := len(g.xs)
	if n == 0 {
		return 0, g.signalVar
	}
	g.kstarBuf = growTo(g.kstarBuf, n)
	kstar := g.kstarBuf
	for i := range g.xs {
		kstar[i] = g.kernel(x, g.xs[i])
	}
	mean = g.yMean
	for i := range kstar {
		mean += kstar[i] * g.alpha[i]
	}
	// variance = k(x,x) − k*ᵀ K⁻¹ k*; compute v = L⁻¹ k* by forward
	// substitution.
	g.vBuf = growTo(g.vBuf, n)
	v := g.vBuf
	for i := 0; i < n; i++ {
		sum := kstar[i]
		for k := 0; k < i; k++ {
			sum -= g.chol[i][k] * v[k]
		}
		v[i] = sum / g.chol[i][i]
	}
	variance = g.kernel(x, x)
	for _, vi := range v {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// ---------------------------------------------------------------------------
// GP-LCB optimizer

// Objective evaluates a candidate and returns the observed objective
// value (to minimize) plus whether the candidate satisfied all
// constraints (the Tuner's SLO check). Evaluation is the expensive
// step — one real (or simulated) measurement per call.
type Objective func(candidate float64) (value float64, feasible bool)

// LCBResult summarizes one optimization run.
type LCBResult struct {
	Best       float64 // best feasible candidate found
	BestValue  float64 // its observed objective value
	Iterations int     // objective evaluations performed
	Feasible   bool    // false when no candidate satisfied the constraints
}

// Minimize's stop rule: after patience consecutive feasible rounds
// that improve the best value by less than the relative tol, the search
// has converged.
const (
	tol      = 0.01
	patience = 3
)

// ErrNoCandidates reports an empty search space.
var ErrNoCandidates = errors.New("gp: empty candidate set")

// Minimize runs constrained GP-LCB over the discrete candidate set.
// Each iteration evaluates the candidate minimizing the acquisition
// A(x) = μ(x) − √β_n·σ(x) with β_n = 2·log(|R|/n²) (Eq. 3). Infeasible
// observations are kept in the surrogate with a penalty so the search
// moves away from them, mirroring how the Tuner folds the SLO
// constraint into the GP framework.
func Minimize(candidates []float64, obj Objective, maxIters int) (LCBResult, error) {
	if len(candidates) == 0 {
		return LCBResult{}, ErrNoCandidates
	}
	g := New()

	res := LCBResult{BestValue: math.Inf(1)}
	// evaluated tracks candidates by index; covered counts distinct
	// evaluated values. Marking sweeps value-duplicates together, so the
	// pair reproduces the semantics of a map keyed by candidate value —
	// including duplicate candidate sets never reaching full coverage.
	evaluated := make([]bool, len(candidates))
	covered := 0
	var worst float64 // running worst feasible value, for the penalty
	sizeR := float64(len(candidates))
	staleRounds := 0

	for iter := 1; iter <= maxIters; iter++ {
		// Pick the acquisition minimizer among unevaluated candidates;
		// once all are evaluated, allow re-evaluation (noisy setting).
		beta := 2 * math.Log(math.Max(sizeR/float64(iter*iter), 1.0001))
		sqrtBeta := math.Sqrt(beta)
		exhausted := covered >= len(candidates)
		bestAcq := math.Inf(1)
		var pick float64
		pickIdx := -1
		for i, c := range candidates {
			if evaluated[i] && !exhausted {
				continue
			}
			mu, v := g.Predict(c)
			acq := mu - sqrtBeta*math.Sqrt(v)
			if acq < bestAcq {
				bestAcq, pick, pickIdx = acq, c, i
			}
		}
		if pickIdx < 0 {
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
			if value < res.BestValue*(1-tol) || !res.Feasible {
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
			// Penalize infeasible points above the worst feasible value
			// so the LCB surface repels them.
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
			if staleRounds >= patience {
				break
			}
		}
	}
	return res, nil
}
