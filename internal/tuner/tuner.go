// Package tuner implements the Local Coordinator's Tuner (§5.3): the
// two-phase, decoupled device-level control loop. Adaptive batching
// searches the batch-size space with constrained GP-LCB Bayesian
// optimization, minimizing the co-located training task's measured
// mini-batch time subject to the inference SLO; dynamic resource
// scaling then solves Eq. 4 for the smallest GPU partition that holds
// the SLO, adds 10% headroom, and (when the partition changes) pays the
// shadow-instance reconfiguration protocol.
package tuner

import (
	"errors"
	"fmt"
	"math"

	"mudi/internal/gp"
	"mudi/internal/opt"
	"mudi/internal/piecewise"
)

// Measurer provides live device feedback to the Tuner.
type Measurer interface {
	// TrainIterMs observes the training mini-batch time with the
	// inference service configured at (batch, delta).
	TrainIterMs(batch int, delta float64) (float64, error)
}

// CurveFn returns the (predicted or profiled) latency curve of the
// inference service for a batch size under the current co-location.
type CurveFn func(batch int) piecewise.Func

// BatchStrategy selects the adaptive-batching algorithm — the paper
// uses GP-LCB Bayesian optimization (§5.3.1); the alternatives exist
// for the ablation that justifies that choice (fewer evaluations than
// exhaustive search, better optima than a fixed batch).
type BatchStrategy int

// Batching strategies.
const (
	// BatchBO is constrained GP-LCB Bayesian optimization (default).
	BatchBO BatchStrategy = iota
	// BatchFixed keeps a fixed batch of 64 and only solves Eq. 4.
	BatchFixed
	// BatchExhaustive measures every candidate (more evaluations).
	BatchExhaustive
)

// The Tuner's operating constants (§5.3). Mudi's Device Selector and
// its validation rounds read the same values.
const (
	// Headroom is the extra GPU% added to the Eq. 4 solution.
	Headroom = 0.10
	// BOBudget is the GP-LCB evaluation budget per episode (§7.5).
	BOBudget = 25
	// MinTrainShare is the GPU share always left to a co-located
	// training task (§7.4), so the service takes at most
	// 1 - MinTrainShare of the device.
	MinTrainShare = 0.10
	// SLOMargin scales the SLO inside Eq. 4 so the operating point
	// keeps latency slack against measurement noise and QPS drift
	// between Monitor triggers.
	SLOMargin = 0.90
)

// Config holds the Tuner's one setting.
type Config struct {
	// Strategy selects the adaptive-batching algorithm; default BatchBO.
	Strategy BatchStrategy
}

// Request describes one tuning episode.
type Request struct {
	QPS        float64 // current arrival rate (req/s)
	SLOms      float64
	Candidates []int   // batch-size search space
	Curves     CurveFn // latency curves under the current co-location
	Measure    Measurer
	// HasTraining reports whether a training task is co-located; if
	// not, the Tuner only solves the SLO side.
	HasTraining bool
	// OnEval, when non-nil, observes every objective evaluation the
	// episode performs (one BO probe or one exhaustive-search
	// measurement): the probed batch, the partition the measurement ran
	// at, the measured training iteration ms, and whether Eq. 4 was
	// feasible for that batch. The tracing layer hooks this to emit
	// bo_iter child spans; it must not mutate tuner state.
	OnEval func(batch int, delta, trainIterMs float64, feasible bool)
}

// Decision is the Tuner's output configuration.
type Decision struct {
	Batch        int
	Delta        float64 // GPU% for the inference service
	Feasible     bool    // false → pause training and give inference the device (§5.3.2)
	BOIterations int     // Fig. 18a's metric
	TrainIterMs  float64 // predicted/observed training iteration at the decision
}

// Tuner is stateless between calls except for configuration; the
// cluster keeps one per device.
type Tuner struct {
	cfg Config
}

// New returns a Tuner with the given configuration.
func New(cfg Config) *Tuner { return &Tuner{cfg: cfg} }

// Errors.
var (
	ErrNoCandidates = errors.New("tuner: empty batch candidate set")
	ErrBadRequest   = errors.New("tuner: invalid request")
)

// maxDelta is the largest partition the inference service may take.
func (t *Tuner) maxDelta(hasTraining bool) float64 {
	if hasTraining {
		return 1 - MinTrainShare
	}
	return 1
}

// feasibleDelta returns the Eq. 4 minimum partition (with headroom) for
// one batch size, or ok=false.
func (t *Tuner) feasibleDelta(req Request, batch int, maxDelta float64) (float64, bool) {
	res, err := opt.MinPartition(opt.ScaleRequest{
		QPS:      req.QPS,
		Batch:    batch,
		SLO:      req.SLOms * SLOMargin,
		Latency:  req.Curves(batch),
		MaxDelta: maxDelta,
		Headroom: Headroom,
	})
	if err != nil || !res.Feasible {
		return 0, false
	}
	return res.Delta, true
}

// Tune runs the full two-phase episode: adaptive batching then dynamic
// resource scaling. It never returns an error for mere infeasibility —
// that is reported via Decision.Feasible so the caller can pause
// training.
func (t *Tuner) Tune(req Request) (Decision, error) {
	if req.QPS <= 0 || req.SLOms <= 0 {
		return Decision{}, fmt.Errorf("%w: qps=%v slo=%v", ErrBadRequest, req.QPS, req.SLOms)
	}
	if len(req.Candidates) == 0 {
		return Decision{}, ErrNoCandidates
	}
	if req.Curves == nil {
		return Decision{}, fmt.Errorf("%w: nil curve provider", ErrBadRequest)
	}
	maxDelta := t.maxDelta(req.HasTraining)

	// Phase 0: initial partition = max cutoff across batch sizes
	// (§5.3.2).
	var delta float64
	for _, b := range req.Candidates {
		if c := req.Curves(b); c.Cutoff > delta {
			delta = c.Cutoff
		}
	}
	if delta > maxDelta {
		delta = maxDelta
	}
	if delta <= 0 {
		delta = maxDelta
	}

	// Without a training task there is nothing to optimize: choose the
	// largest feasible batch (throughput) and the minimal partition.
	if !req.HasTraining || req.Measure == nil {
		best := Decision{}
		for _, b := range req.Candidates {
			if d, ok := t.feasibleDelta(req, b, maxDelta); ok {
				if !best.Feasible || b > best.Batch {
					best = Decision{Batch: b, Delta: d, Feasible: true}
				}
			}
		}
		if !best.Feasible {
			return Decision{Feasible: false, Batch: t.bestServingBatch(req)}, nil
		}
		return best, nil
	}

	switch t.cfg.Strategy {
	case BatchFixed:
		return t.tuneFixed(req, maxDelta)
	case BatchExhaustive:
		return t.tuneExhaustive(req, delta, maxDelta)
	}

	// Phase 1: adaptive batching via constrained GP-LCB (§5.3.1). The
	// objective is the measured training iteration time at the current
	// partition; a candidate is feasible when Eq. 4 has a solution.
	// candidates[i] is Log2(req.Candidates[i]); with the slices
	// index-aligned, a linear scan over the handful of batch sizes beats
	// a float-keyed map (and allocates nothing).
	candidates := make([]float64, len(req.Candidates))
	for i, b := range req.Candidates {
		candidates[i] = math.Log2(float64(b))
	}
	batchFor := func(x float64) int {
		for i, c := range candidates {
			if c == x {
				return req.Candidates[i]
			}
		}
		return 0
	}
	var measureErr error
	objective := func(x float64) (float64, bool) {
		b := batchFor(x)
		_, ok := t.feasibleDelta(req, b, maxDelta)
		iter, err := req.Measure.TrainIterMs(b, delta)
		if err != nil {
			measureErr = err
			return math.Inf(1), false
		}
		if req.OnEval != nil {
			req.OnEval(b, delta, iter, ok)
		}
		return iter, ok
	}
	res, err := gp.Minimize(candidates, objective, BOBudget)
	if err != nil {
		return Decision{}, err
	}
	if measureErr != nil {
		return Decision{}, measureErr
	}
	if !res.Feasible {
		// No batch size can hold the SLO even at maxDelta: pause
		// training (§5.3.2's bursty-QPS escape hatch). Adaptive
		// batching still serves the inference side: report the batch
		// with the best latency-to-budget ratio at the full device so
		// the service degrades as little as possible.
		return Decision{Feasible: false, Batch: t.bestServingBatch(req), BOIterations: res.Iterations}, nil
	}
	batch := batchFor(res.Best)

	// Phase 2: dynamic resource scaling — the minimum partition for the
	// chosen batch, plus headroom (Eq. 4).
	finalDelta, ok := t.feasibleDelta(req, batch, maxDelta)
	if !ok {
		return Decision{Feasible: false, BOIterations: res.Iterations}, nil
	}
	return Decision{
		Batch:        batch,
		Delta:        finalDelta,
		Feasible:     true,
		BOIterations: res.Iterations,
		TrainIterMs:  res.BestValue,
	}, nil
}

// tuneFixed keeps the batch at 64 (or the nearest candidate) and only
// runs resource scaling — the "no adaptive batching" ablation arm.
func (t *Tuner) tuneFixed(req Request, maxDelta float64) (Decision, error) {
	batch := req.Candidates[0]
	for _, b := range req.Candidates {
		if b == 64 {
			batch = 64
			break
		}
		if abs64(b-64) < abs64(batch-64) {
			batch = b
		}
	}
	d, ok := t.feasibleDelta(req, batch, maxDelta)
	if !ok {
		return Decision{Feasible: false, Batch: t.bestServingBatch(req)}, nil
	}
	return Decision{Batch: batch, Delta: d, Feasible: true, BOIterations: 1}, nil
}

// tuneExhaustive measures every candidate — the "grid search" ablation
// arm: same optima as BO in the limit, at |R| evaluations per episode.
func (t *Tuner) tuneExhaustive(req Request, delta, maxDelta float64) (Decision, error) {
	best := Decision{}
	bestIter := math.Inf(1)
	evals := 0
	for _, b := range req.Candidates {
		d, ok := t.feasibleDelta(req, b, maxDelta)
		if !ok {
			continue
		}
		iter, err := req.Measure.TrainIterMs(b, delta)
		if err != nil {
			return Decision{}, err
		}
		if req.OnEval != nil {
			req.OnEval(b, delta, iter, true)
		}
		evals++
		if iter < bestIter {
			bestIter = iter
			best = Decision{Batch: b, Delta: d, Feasible: true, TrainIterMs: iter}
		}
	}
	best.BOIterations = evals
	if !best.Feasible {
		return Decision{Feasible: false, Batch: t.bestServingBatch(req), BOIterations: evals}, nil
	}
	return best, nil
}

func abs64(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// bestServingBatch returns the candidate minimizing the latency-to-
// budget ratio at the full device — the least-bad batch when the SLO
// cannot be held at all.
func (t *Tuner) bestServingBatch(req Request) int {
	best := req.Candidates[0]
	bestRatio := math.Inf(1)
	for _, b := range req.Candidates {
		budget := req.SLOms * float64(b) / req.QPS
		if budget <= 0 {
			continue
		}
		ratio := req.Curves(b).Eval(1) / budget
		if ratio < bestRatio {
			bestRatio, best = ratio, b
		}
	}
	return best
}

// ShadowReconfig models the GPU% update protocol (§5.3.2): changing the
// MPS partition requires restarting the process, hidden behind a shadow
// instance. The returned values are the wall-clock the swap occupies
// and whether a restart was needed at all (batch-only updates are
// on-the-fly).
func ShadowReconfig(oldDelta, newDelta float64) (hiddenSwapSec float64, restarted bool) {
	if math.Abs(oldDelta-newDelta) < 1e-9 {
		return 0, false
	}
	// Spinning up the shadow instance takes tens of seconds; the old
	// instance keeps serving, so the visible cutover is sub-second.
	const spinUpSec = 20
	return spinUpSec, true
}
