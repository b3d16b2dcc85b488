// Package opt contains the optimization substrate behind Mudi's
// dynamic resource scaling (§5.3.2). The paper formulates Eq. 4 —
// the minimum GPU partition that keeps an inference service within its
// SLO — and solves it with CVXPY/ECOS; because the latency model is
// piecewise linear in Δ the problem is solved exactly here.
package opt

import (
	"errors"
	"fmt"

	"mudi/internal/piecewise"
)

// ScaleRequest describes one Eq. 4 instance.
type ScaleRequest struct {
	QPS      float64        // W_i, request arrival rate (req/s)
	Batch    int            // b_i, current batching size
	SLO      float64        // SLO_i in milliseconds
	Latency  piecewise.Func // P_i(b, ·, Ψ): latency vs Δ for this batch and co-location
	MaxDelta float64        // upper bound on Δ (1 − minimum training share); default 1
	Headroom float64        // extra fraction added to the solution (paper: 0.10)
}

// ScaleResult is the solver output.
type ScaleResult struct {
	Delta    float64 // chosen GPU% in (0, 1]
	Feasible bool    // false when no Δ ≤ MaxDelta meets the SLO
	Budget   float64 // the per-batch latency budget that was enforced (ms)
}

// ErrBadRequest reports invalid solver input.
var ErrBadRequest = errors.New("opt: invalid scale request")

// Budget is Eq. 4's per-batch latency budget in milliseconds: the
// paper's constraint (W/b)·P ≤ SLO rewritten as P ≤ SLO·b/W, with W in
// requests/s and latencies in ms. W/b is the batch service rate the
// device must sustain, so the budget shrinks as load rises and grows
// with the batching size.
func Budget(sloMs float64, batch int, qps float64) float64 {
	return sloMs * float64(batch) / qps
}

// MinPartition solves Eq. 4: the smallest Δ such that
// (W/b)·P(b, Δ, Ψ) ≤ SLO, then applies the configured headroom.
func MinPartition(req ScaleRequest) (ScaleResult, error) {
	if req.QPS <= 0 || req.Batch <= 0 || req.SLO <= 0 {
		return ScaleResult{}, fmt.Errorf("%w: qps=%v batch=%d slo=%v", ErrBadRequest, req.QPS, req.Batch, req.SLO)
	}
	if err := req.Latency.Validate(); err != nil {
		return ScaleResult{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	maxDelta := req.MaxDelta
	if maxDelta <= 0 || maxDelta > 1 {
		maxDelta = 1
	}
	budget := Budget(req.SLO, req.Batch, req.QPS)
	delta, ok := req.Latency.MinDeltaFor(budget, maxDelta)
	if !ok {
		return ScaleResult{Feasible: false, Budget: budget}, nil
	}
	if req.Headroom > 0 {
		delta *= 1 + req.Headroom
	}
	if delta > maxDelta {
		delta = maxDelta
	}
	return ScaleResult{Delta: delta, Feasible: true, Budget: budget}, nil
}
