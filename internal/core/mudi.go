package core

import (
	"errors"
	"fmt"

	"mudi/internal/faults"
	"mudi/internal/fit"
	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/piecewise"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/tuner"
)

// MudiConfig parameterizes the Mudi policy.
type MudiConfig struct {
	Tuner tuner.Config
	// MaxTrainPerGPU caps co-located training tasks per device:
	// 1 for Mudi, up to 3 for Mudi-more (§5.5).
	MaxTrainPerGPU int
}

func (c MudiConfig) defaults() MudiConfig {
	if c.MaxTrainPerGPU <= 0 {
		c.MaxTrainPerGPU = 1
	}
	return c
}

// Mudi is the paper's system as a Policy: architecture-based
// interference prediction for placement, GP-LCB adaptive batching plus
// Eq. 4 resource scaling for device control, and incremental predictor
// updates for newly observed co-locations.
type Mudi struct {
	cfg   MudiConfig
	pred  *predictor.Predictor
	tun   *tuner.Tuner
	slope *slopeScorer
	// seenColoc remembers (service, coloc-arch) pairs already profiled
	// online to avoid repeated sampling.
	seenColoc map[colocKey]bool
	// curves caches directly fitted latency curves by (service,
	// coloc-arch, batch); Configure prefers an exact fit over the
	// learner's generalization (§4.2: newly sampled co-locations are
	// fitted and used directly while also updating the predictor).
	curves map[curveKey]piecewise.Func
	// colocs counts the co-locations ObserveColocation learned, and
	// dropped those it gave up on at a measurement or update error.
	colocs, dropped int
}

// newMudi builds the policy around an Interference Predictor; Build
// returns one over the offline pipeline's output.
func newMudi(pred *predictor.Predictor, cfg MudiConfig) *Mudi {
	cfg = cfg.defaults()
	m := &Mudi{
		cfg:       cfg,
		pred:      pred,
		tun:       tuner.New(cfg.Tuner),
		seenColoc: make(map[colocKey]bool),
		curves:    make(map[curveKey]piecewise.Func),
	}
	m.slope = &slopeScorer{
		pred:    pred,
		batches: model.BatchSizes(),
		memo:    make(map[colocKey]slopeEntry),
	}
	return m
}

// Name implements Policy.
func (m *Mudi) Name() string { return "mudi" }

// Predictor exposes the underlying interference predictor (for the
// evaluation harness).
func (m *Mudi) Predictor() *predictor.Predictor { return m.pred }

// colocKey identifies a service next to a cumulative co-location Ψ.
type colocKey struct {
	svc  string
	arch model.Arch
}

// curveKey identifies one fitted-curve cache entry.
type curveKey struct {
	colocKey
	batch int
}

// addProfiles seeds the fitted-curve cache from offline profiles (the
// Offline Profiler grid), alongside predictor training.
func (m *Mudi) addProfiles(profiles []profiler.Profile) {
	for _, pr := range profiles {
		if pr.Curve.Validate() != nil {
			continue
		}
		k := colocKey{pr.Service, pr.ColocArch()}
		m.curves[curveKey{k, pr.Batch}] = pr.Curve
		m.seenColoc[k] = true
	}
}

// LearnerStats is a snapshot of Mudi's online learning: the
// predictor's prequential error and refit counts, with the online
// co-locations learned and dropped.
type LearnerStats struct {
	predictor.Stats
	// Colocations counts the co-locations profiled online without a
	// drop.
	Colocations int
	// Dropped counts the co-locations ObserveColocation abandoned at a
	// measurement or Predictor.Update error. A dropped co-location stays
	// marked as seen, so it is never retried.
	Dropped int
}

// LearnerStats returns a snapshot of the online learner's record.
func (m *Mudi) LearnerStats() LearnerStats {
	return LearnerStats{Stats: m.pred.Stats(), Colocations: m.colocs, Dropped: m.dropped}
}

// colocArch is the cumulative Ψ of resident tasks plus the candidate
// (§5.5: "designates the cumulative feature layers as Ψ").
func colocArch(resident []model.TrainingTask, extra ...model.TrainingTask) model.Arch {
	var a model.Arch
	for _, t := range resident {
		a = a.Add(t.Arch)
	}
	for _, t := range extra {
		a = a.Add(t.Arch)
	}
	return a
}

// slopeScorer scores devices by the negated predicted average slope:
// the Device Selector of §5.2.
//
// The predictor's outputs depend only on (service, Ψ) and the
// service's predictor generation, and a fleet has a handful of such
// pairs, so the scorer evaluates the predictor once per pair and
// generation (memo) and runs only the Eq. 4 solve, which reads the
// device's own QPS and SLO, per device. The memo lives across
// SelectDevice calls: an entry stamped with an older generation than
// its service's current one is recomputed on its next use, so a
// predictor update is always seen and leaves other services' entries
// valid.
type slopeScorer struct {
	pred    *predictor.Predictor
	batches []int
	memo    map[colocKey]slopeEntry
}

// slopeEntry is the predictor's output for one (service, Ψ) at the
// service's generation gen: the average slope or its error, and the
// predicted curve per batch size (in batches order).
type slopeEntry struct {
	gen    uint64
	slope  float64
	err    error
	curves []piecewise.Func
}

// entry returns the memoized predictor output for (svc, arch),
// evaluating it when the memo has none for svc's current generation.
func (p *slopeScorer) entry(svc string, arch model.Arch) slopeEntry {
	key := colocKey{svc, arch}
	gen := p.pred.Generation(svc)
	if e, ok := p.memo[key]; ok && e.gen == gen {
		return e
	}
	e := slopeEntry{gen: gen}
	e.slope, e.curves, e.err = p.pred.AvgSlope(svc, arch)
	p.memo[key] = e
	return e
}

// score rates the device for the task, higher being better; ok=false
// when the predictor cannot rate the device's service next to the
// co-location (an untrained service).
func (p *slopeScorer) score(task *model.TrainingTask, view *DeviceView) (float64, bool) {
	e := p.entry(view.ServiceName, colocArch(view.ResidentTasks, *task))
	if e.err != nil {
		return 0, false
	}
	// A smaller slope both reduces SLO pressure and lets the service
	// shrink, "which is advantageous for optimizing the objective"
	// (§5.2): quantify that advantage as the predicted leftover GPU
	// share after Eq. 4 sizes the service at the device's current QPS,
	// averaged over the batch candidates.
	var shareSum float64
	if view.QPS > 0 && view.SLOms > 0 {
		for i, b := range p.batches {
			res, err := opt.MinPartition(opt.ScaleRequest{
				QPS: view.QPS, Batch: b, SLO: view.SLOms, Latency: e.curves[i], MaxDelta: tuner.MaxDelta(true),
			})
			if err != nil || !res.Feasible {
				continue
			}
			shareSum += 1 - res.Delta
		}
	}
	avgShare := shareSum / float64(len(p.batches))
	// Higher score = better; slopes are positive magnitudes.
	return (0.05 + avgShare) / (1 + e.slope), true
}

// SelectDevice implements Policy (§5.2): assign the task to the device
// whose service shows the smallest predicted average slope across the
// batch-size set — the eligible device with the highest score, ties to
// the smaller ID.
func (m *Mudi) SelectDevice(task model.TrainingTask, views []DeviceView, _ map[string]Measurer) (string, bool) {
	return PickMin(views, m.cfg.MaxTrainPerGPU, func(v *DeviceView) (float64, bool) {
		s, ok := m.slope.score(&task, v)
		return -s, ok
	})
}

// Configure implements Policy (§5.3): predicted curves feed the
// two-phase Tuner episode.
func (m *Mudi) Configure(view DeviceView, meas Measurer) (Decision, error) {
	if view.ServiceName == "" {
		return Decision{}, fmt.Errorf("core: device %s has no inference service", view.ID)
	}
	coloc := colocKey{view.ServiceName, colocArch(view.ResidentTasks)}
	resolve := func(b int) piecewise.Func {
		if c, ok := m.curves[curveKey{coloc, b}]; ok {
			return c // exact fit for this co-location
		}
		c, err := m.pred.PredictCurve(coloc.svc, b, coloc.arch)
		if err != nil {
			// Untrained service: a conservative steep default makes the
			// solver allocate generously rather than violate the SLO.
			return piecewise.Func{K1: -10 * view.SLOms, K2: -0.1 * view.SLOms, Cutoff: 0.6, L0: view.SLOms / 2}
		}
		return c
	}
	// The tuner asks for every candidate's curve, several times per
	// episode: resolve each one once.
	batches := model.BatchSizes()
	resolved := make([]piecewise.Func, len(batches))
	for i, b := range batches {
		resolved[i] = resolve(b)
	}
	curves := func(b int) piecewise.Func {
		for i, c := range batches {
			if c == b {
				return resolved[i]
			}
		}
		return resolve(b)
	}
	req := tuner.Request{
		QPS:         view.QPS,
		SLOms:       view.SLOms,
		Candidates:  batches,
		Curves:      curves,
		Measure:     meas,
		HasTraining: len(view.ResidentTasks) > 0,
	}
	dec, err := m.tun.Tune(req)
	if err != nil && req.Measure != nil && errors.Is(err, faults.ErrMeasurement) {
		// The live measurement channel is transiently failing and its
		// retries are exhausted: rerun the episode on predictor-only
		// curves rather than dropping the reconfiguration. The device
		// keeps a (possibly slightly stale) valid config instead of
		// none. The rerun measures nothing, so the episode's probes are
		// the first run's.
		probes := dec.Probes
		req.Measure = nil
		dec, err = m.tun.Tune(req)
		dec.Probes = probes
	}
	if err != nil {
		return Decision{Probes: dec.Probes}, err
	}
	// Validation rounds: the predicted curve can be optimistic for a
	// co-location the predictor has not fully learned. Verify the
	// decision against a live latency measurement; if it misses the
	// Tuner's planning margin (tuner.SLOMargin of the budget), grow the
	// partition by 10 points and re-check (the Monitor's "SLO at risk"
	// repair loop, §6, done before committing the configuration).
	if dec.Feasible && meas != nil {
		budget := view.SLOms * float64(dec.Batch) / view.QPS
		margin := tuner.SLOMargin * budget
		for round := 0; round < 3; round++ {
			lat, err := meas.InfLatencyMs(dec.Batch, dec.Delta)
			if err != nil {
				break
			}
			if lat <= margin {
				break
			}
			grown := dec.Delta + 0.1
			if grown > tuner.MaxDelta(true) && len(view.ResidentTasks) > 0 {
				// Cannot grow further while training holds its floor:
				// declare infeasibility so the caller pauses training.
				dec = Decision{Feasible: false, Batch: dec.Batch, BOIterations: dec.BOIterations, Probes: dec.Probes}
				break
			}
			if grown > 1 {
				grown = 1
			}
			dec.Delta = grown
		}
	}
	return dec, nil
}

// ObserveColocation implements OnlineLearner: when a service meets a
// co-location Mudi has not profiled, sample its latency curve online
// and update the Interference Predictor incrementally (§4.1.2, the
// Fig. 12 path).
func (m *Mudi) ObserveColocation(view DeviceView, meas Measurer) {
	if view.ServiceName == "" || len(view.ResidentTasks) == 0 || meas == nil {
		return
	}
	key := colocKey{view.ServiceName, colocArch(view.ResidentTasks)}
	if m.seenColoc[key] {
		return
	}
	m.seenColoc[key] = true
	grid := profiler.SampleGrid()
	for _, b := range model.BatchSizes() {
		samples := make([]fit.Sample, 0, len(grid))
		for _, d := range grid {
			l, err := meas.InfLatencyMs(b, d)
			if err != nil {
				m.dropped++
				return
			}
			samples = append(samples, fit.Sample{Delta: d, Latency: l})
		}
		curve, err := fit.Piecewise(samples)
		if err != nil {
			continue
		}
		m.curves[curveKey{key, b}] = curve
		prof := profiler.Profile{
			Service: view.ServiceName,
			Batch:   b,
			Coloc:   view.ResidentTasks,
			Curve:   curve,
			Samples: samples,
		}
		if err := m.pred.Update(prof); err != nil {
			m.dropped++
			return
		}
	}
	m.colocs++
}

var (
	_ Policy        = (*Mudi)(nil)
	_ OnlineLearner = (*Mudi)(nil)
)
