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
	Candidates []int // batch-size search space
	// Curves[i] is the inference service's (predicted or profiled)
	// latency curve at batch Candidates[i] under the current
	// co-location. Tune reads it only while it runs, so the caller may
	// reuse the slice for its next request.
	Curves  []piecewise.Func
	Measure Measurer
	// HasTraining reports whether a training task is co-located; if
	// not, the Tuner only solves the SLO side.
	HasTraining bool
}

// Probe is one successful objective evaluation of an episode (one BO
// probe or one exhaustive-search measurement): the probed batch, the
// partition the measurement ran at, the measured training iteration
// ms, and whether Eq. 4 was feasible for that batch.
type Probe struct {
	Batch       int
	Delta       float64
	TrainIterMs float64
	Feasible    bool
}

// Decision is the Tuner's output configuration.
type Decision struct {
	Batch        int
	Delta        float64 // GPU% for the inference service
	Feasible     bool    // false → pause training and give inference the device (§5.3.2)
	BOIterations int     // Fig. 18a's metric
	TrainIterMs  float64 // predicted/observed training iteration at the decision
	// Probes are the episode's measurements in order; the tracing layer
	// renders each as a bo_iter span.
	Probes []Probe
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

// MaxDelta is the largest partition the inference service may take:
// the whole device when it runs alone, and 1 - MinTrainShare while
// training is co-located (§7.4). Every policy and the cluster's clamp
// read this one floor.
func MaxDelta(hasTraining bool) float64 {
	if hasTraining {
		return 1 - MinTrainShare
	}
	return 1
}

// feasibleDelta returns the Eq. 4 minimum partition (with headroom) for
// candidate i, or ok=false.
func (t *Tuner) feasibleDelta(req Request, i int, maxDelta float64) (float64, bool) {
	res, err := opt.MinPartition(opt.ScaleRequest{
		QPS:      req.QPS,
		Batch:    req.Candidates[i],
		SLO:      req.SLOms * SLOMargin,
		Latency:  req.Curves[i],
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
// training. On an error the Decision carries only the probes measured
// before it.
func (t *Tuner) Tune(req Request) (Decision, error) {
	if req.QPS <= 0 || req.SLOms <= 0 {
		return Decision{}, fmt.Errorf("%w: qps=%v slo=%v", ErrBadRequest, req.QPS, req.SLOms)
	}
	if len(req.Candidates) == 0 {
		return Decision{}, ErrNoCandidates
	}
	if len(req.Curves) != len(req.Candidates) {
		return Decision{}, fmt.Errorf("%w: %d curves for %d candidates", ErrBadRequest, len(req.Curves), len(req.Candidates))
	}
	maxDelta := MaxDelta(req.HasTraining)

	// Phase 0: initial partition = max cutoff across batch sizes
	// (§5.3.2).
	var delta float64
	for _, c := range req.Curves {
		if c.Cutoff > delta {
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
		for i, b := range req.Candidates {
			if d, ok := t.feasibleDelta(req, i, maxDelta); ok {
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
	indexOf := func(x float64) int {
		for i, c := range candidates {
			if c == x {
				return i
			}
		}
		return -1
	}
	var measureErr error
	probes := make([]Probe, 0, BOBudget)
	objective := func(x float64) (float64, bool) {
		i := indexOf(x)
		b := req.Candidates[i]
		_, ok := t.feasibleDelta(req, i, maxDelta)
		iter, err := req.Measure.TrainIterMs(b, delta)
		if err != nil {
			measureErr = err
			return math.Inf(1), false
		}
		probes = append(probes, Probe{Batch: b, Delta: delta, TrainIterMs: iter, Feasible: ok})
		return iter, ok
	}
	res, err := gp.Minimize(candidates, objective, BOBudget)
	if err != nil {
		return Decision{Probes: probes}, err
	}
	if measureErr != nil {
		return Decision{Probes: probes}, measureErr
	}
	if !res.Feasible {
		// No batch size can hold the SLO even at maxDelta: pause
		// training (§5.3.2's bursty-QPS escape hatch). Adaptive
		// batching still serves the inference side: report the batch
		// with the best latency-to-budget ratio at the full device so
		// the service degrades as little as possible.
		return Decision{Feasible: false, Batch: t.bestServingBatch(req), BOIterations: res.Iterations, Probes: probes}, nil
	}
	best := indexOf(res.Best)
	batch := req.Candidates[best]

	// Phase 2: dynamic resource scaling — the minimum partition for the
	// chosen batch, plus headroom (Eq. 4).
	finalDelta, ok := t.feasibleDelta(req, best, maxDelta)
	if !ok {
		return Decision{Feasible: false, BOIterations: res.Iterations, Probes: probes}, nil
	}
	return Decision{
		Batch:        batch,
		Delta:        finalDelta,
		Feasible:     true,
		BOIterations: res.Iterations,
		TrainIterMs:  res.BestValue,
		Probes:       probes,
	}, nil
}

// tuneFixed keeps the batch at 64 (or the nearest candidate) and only
// runs resource scaling — the "no adaptive batching" ablation arm.
func (t *Tuner) tuneFixed(req Request, maxDelta float64) (Decision, error) {
	idx := 0
	for i, b := range req.Candidates {
		if b == 64 {
			idx = i
			break
		}
		if abs64(b-64) < abs64(req.Candidates[idx]-64) {
			idx = i
		}
	}
	batch := req.Candidates[idx]
	d, ok := t.feasibleDelta(req, idx, maxDelta)
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
	probes := make([]Probe, 0, BOBudget)
	for i, b := range req.Candidates {
		d, ok := t.feasibleDelta(req, i, maxDelta)
		if !ok {
			continue
		}
		iter, err := req.Measure.TrainIterMs(b, delta)
		if err != nil {
			return Decision{Probes: probes}, err
		}
		probes = append(probes, Probe{Batch: b, Delta: delta, TrainIterMs: iter, Feasible: true})
		if iter < bestIter {
			bestIter = iter
			best = Decision{Batch: b, Delta: d, Feasible: true, TrainIterMs: iter}
		}
	}
	if !best.Feasible {
		best = Decision{Feasible: false, Batch: t.bestServingBatch(req)}
	}
	best.BOIterations, best.Probes = len(probes), probes
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
	for i, b := range req.Candidates {
		budget := opt.Budget(req.SLOms, b, req.QPS)
		if budget <= 0 {
			continue
		}
		ratio := req.Curves[i].Eval(1) / budget
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
