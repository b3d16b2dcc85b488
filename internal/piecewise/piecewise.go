// Package piecewise implements the paper's inference-latency
// quantification (Eq. 1): a two-segment piecewise-linear function of the
// GPU partition size Δ,
//
//	L(Δ) = k1·(Δ − Δ0) + l0   for Δ ≤ Δ0,
//	L(Δ) = k2·(Δ − Δ0) + l0   otherwise,
//
// where (Δ0, l0) is the cutoff (knee) point. The slopes k1, k2 capture
// the interference that a co-located workload imposes on the inference
// service; their average is Mudi's device-selection score (§5.2).
package piecewise

import (
	"errors"
	"fmt"
	"math"
)

// Func is a fitted two-segment piecewise-linear latency function.
type Func struct {
	K1     float64 // slope for Δ ≤ Δ0 (steep segment; typically negative)
	K2     float64 // slope for Δ > Δ0 (shallow segment)
	Cutoff float64 // Δ0, knee location in (0, 1]
	L0     float64 // latency at the knee, in milliseconds
}

// ErrInvalid reports an unusable parameterization.
var ErrInvalid = errors.New("piecewise: invalid parameters")

// Validate reports whether the function is usable: the cutoff must lie
// in (0, 1], the knee latency must be positive, and all fields finite.
func (f Func) Validate() error {
	for _, v := range []float64{f.K1, f.K2, f.Cutoff, f.L0} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite field in %+v", ErrInvalid, f)
		}
	}
	if f.Cutoff <= 0 || f.Cutoff > 1 {
		return fmt.Errorf("%w: cutoff %v outside (0,1]", ErrInvalid, f.Cutoff)
	}
	if f.L0 <= 0 {
		return fmt.Errorf("%w: knee latency %v not positive", ErrInvalid, f.L0)
	}
	return nil
}

// Eval returns the latency at partition size delta. Values are clamped
// to a small positive floor so downstream division stays safe even for
// extrapolated regions.
func (f Func) Eval(delta float64) float64 {
	var l float64
	if delta <= f.Cutoff {
		l = f.K1*(delta-f.Cutoff) + f.L0
	} else {
		l = f.K2*(delta-f.Cutoff) + f.L0
	}
	const floor = 1e-6
	if l < floor {
		return floor
	}
	return l
}

// AvgSlope returns the mean of the two slope magnitudes. Mudi uses the
// average slope across batch sizes as the interference score: smaller
// means both less SLO pressure and less sensitivity to partition size.
func (f Func) AvgSlope() float64 {
	return (math.Abs(f.K1) + math.Abs(f.K2)) / 2
}

// MinDeltaFor returns the smallest Δ in (0, maxDelta] such that
// Eval(Δ) ≤ budget, solving Eq. 4's inner constraint analytically per
// segment. ok is false when even Δ = maxDelta cannot meet the budget.
//
// The function assumes latency is non-increasing in Δ (k1, k2 ≤ 0 after
// fitting); if a fitted slope came out positive due to noise the search
// degrades to checking the endpoints, which keeps the result safe
// (never reports a Δ that violates the budget).
func (f Func) MinDeltaFor(budget, maxDelta float64) (delta float64, ok bool) {
	if maxDelta <= 0 {
		return 0, false
	}
	if maxDelta > 1 {
		maxDelta = 1
	}
	if f.Eval(maxDelta) > budget {
		return 0, false
	}
	const minDelta = 0.01 // 1% — the smallest MPS partition the paper uses
	if f.Eval(minDelta) <= budget {
		return minDelta, true
	}
	// Try the steep segment: k1·(Δ−Δ0)+l0 = budget.
	if f.K1 < 0 {
		d := f.Cutoff + (budget-f.L0)/f.K1
		if d >= minDelta && d <= f.Cutoff && d <= maxDelta && f.Eval(d) <= budget*(1+1e-9) {
			return clamp(d, minDelta, maxDelta), true
		}
	}
	// Knee itself.
	if f.Cutoff <= maxDelta && f.L0 <= budget {
		return clamp(f.Cutoff, minDelta, maxDelta), true
	}
	// Shallow segment: k2·(Δ−Δ0)+l0 = budget.
	if f.K2 < 0 {
		d := f.Cutoff + (budget-f.L0)/f.K2
		if d > f.Cutoff && d <= maxDelta && f.Eval(d) <= budget*(1+1e-9) {
			return clamp(d, minDelta, maxDelta), true
		}
	}
	// Fall back to bisection over [minDelta, maxDelta]; Eval(maxDelta)
	// meets the budget, so a feasible point exists.
	lo, hi := minDelta, maxDelta
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f.Eval(mid) <= budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// MinDeltaBound returns a Δ no larger than MinDeltaFor(b, maxDelta)
// for any budget b ≤ budget at which that solve is ok. MinDeltaFor
// itself is not monotone in the budget: where its steep solve lands
// within rounding of the 1% floor, one float more of budget can fail
// both the floor check and the steep branch's d ≥ 1% check and fall
// through to the knee (K1=-95, K2=-4, Δ0=0.09, l0=4 solves budget
// 11.599999999999998 to 0.010000000000000023 and budget 11.6 to 0.09).
//
// The bound holds anyway. Every ok solve at b returns a Δ ≥
// lo = min(1%, maxDelta) that meets Eval(Δ) ≤ b·(1+1e-9), the loosest
// of its acceptance checks, or else the knee clamped up to 1%, which
// needs l0 ≤ b. So x is a bound when every Δ in [lo, x] has latency
// above budget·(1+1e-9) and, if x is past the knee, so has l0. The
// bound is the segment solve at a budget slightly above that, kept
// when each segment's lowest latency on [lo, x] confirms it: at the
// end its slope's sign fixes, or l0 for a rising shallow segment.
// Otherwise the bound is lo.
func (f Func) MinDeltaBound(budget, maxDelta float64) float64 {
	const minDelta = 0.01
	lo := min(minDelta, maxDelta)
	accept := budget * (1 + 1e-9)
	target := accept * (1 + 1e-9)
	k := f.K1
	if target < f.L0 {
		k = f.K2
	}
	x := f.Cutoff + (target-f.L0)/k
	if !(x > lo) {
		return lo
	}
	if lo <= f.Cutoff {
		// The steep segment's lowest latency on [lo, min(x, Δ0)].
		probe := lo
		if f.K1 <= 0 {
			probe = min(x, f.Cutoff)
		}
		if !(f.Eval(probe) > accept) {
			return lo
		}
	}
	if x > f.Cutoff {
		// The shallow segment's on (Δ0, x]: never below l0 if it rises.
		if f.K2 > 0 && !(f.L0 > accept) || f.K2 <= 0 && !(f.Eval(x) > accept) {
			return lo
		}
	}
	return x
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Params returns the function's parameters in the paper's Y order:
// [k1, k2, Δ0, l0]. This is the target vector learned by the
// Interference Modeler (§4.1.2).
func (f Func) Params() [4]float64 {
	return [4]float64{f.K1, f.K2, f.Cutoff, f.L0}
}

// FromParams reconstructs a Func from a [k1, k2, Δ0, l0] vector,
// clamping the cutoff into (0, 1] and the knee latency to a positive
// floor so that predicted parameter vectors always yield a usable
// function.
func FromParams(p [4]float64) Func {
	f := Func{K1: p[0], K2: p[1], Cutoff: p[2], L0: p[3]}
	if math.IsNaN(f.Cutoff) || f.Cutoff <= 0 {
		f.Cutoff = 0.05
	}
	if f.Cutoff > 1 {
		f.Cutoff = 1
	}
	if math.IsNaN(f.L0) || f.L0 <= 0 {
		f.L0 = 1e-3
	}
	if math.IsNaN(f.K1) {
		f.K1 = 0
	}
	if math.IsNaN(f.K2) {
		f.K2 = 0
	}
	return f
}

// String renders the function compactly for logs and reports.
func (f Func) String() string {
	return fmt.Sprintf("pw{k1=%.2f k2=%.2f Δ0=%.2f l0=%.2fms}", f.K1, f.K2, f.Cutoff, f.L0)
}
