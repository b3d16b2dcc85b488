// Package predictor implements Mudi's Interference Modeler and online
// Interference Predictor (§4.1.2/§4.2): per inference service, four
// learners — one per piecewise parameter (k1, k2, Δ0, l0) — map the
// feature vector X = [layer counts Ψ, batch size] of a (possibly
// unseen) co-located training task to the predicted latency curve. The
// model family for each target is chosen by cross-validation, and the
// learners update incrementally as new co-locations are profiled
// (Fig. 11/12).
package predictor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"mudi/internal/learn"
	"mudi/internal/model"
	"mudi/internal/piecewise"
	"mudi/internal/profiler"
)

// targetNames index the four regression targets.
var targetNames = [4]string{"k1", "k2", "cutoff", "l0"}

// svcPredictor holds one service's four incremental learners.
type svcPredictor struct {
	learners [4]*learn.Incremental
	// gen counts the profiles added to the service (see Generation).
	gen uint64
}

// Predictor is the cluster-wide interference predictor.
type Predictor struct {
	seed     uint64
	services map[string]*svcPredictor
	score    prequential
}

// prequential accumulates the test-then-train error of Update: each
// online profile is predicted by the learners as they stood before it
// was learned.
type prequential struct {
	scored int
	// targetAPE and targetN sum each target's absolute percentage error
	// over the scored profiles whose true parameter is non-zero.
	targetAPE [4]float64
	targetN   [4]int
	// latAPE and latN sum the latency-space absolute percentage error
	// over every profiled point of the scored profiles.
	latAPE float64
	latN   int
	curve  []float64
}

// Stats is the predictor's prequential (test-then-train) record and
// its learners' refit counts.
type Stats struct {
	// Scored counts the online profiles (one per co-location and batch
	// size) predicted before they were learned.
	Scored int
	// TargetMAPE is each target's (k1, k2, Δ0, l0) mean absolute
	// percentage error against the profile's fitted curve.
	TargetMAPE [4]float64
	// LatencyMAPE is Fig. 12's metric: the predicted curve's mean
	// absolute percentage error over every profiled (Δ, latency) point.
	LatencyMAPE float64
	// Curve is the latency MAPE of each scored profile that carries
	// samples, in scoring order: the prequential learning curve.
	Curve []float64
	// Refits counts every learner refit, offline and online, and
	// Selections those that ran a model selection (see
	// learn.Incremental.Refit).
	Refits, Selections int
}

// New returns an empty predictor.
func New(seed uint64) *Predictor {
	return &Predictor{seed: seed, services: make(map[string]*svcPredictor)}
}

// Clone returns a predictor that predicts exactly as p does and then
// learns independently of it: Train or Update on either leaves the
// other's predictions, generations, samples and Stats unchanged. It
// copies each learner (see learn.Incremental.Clone), so a clone costs
// the sample slices and not a model selection.
func (p *Predictor) Clone() *Predictor {
	c := &Predictor{seed: p.seed, services: make(map[string]*svcPredictor, len(p.services)), score: p.score}
	c.score.curve = slices.Clip(slices.Clone(p.score.curve))
	for name, sp := range p.services {
		csp := &svcPredictor{gen: sp.gen}
		for i, l := range sp.learners {
			csp.learners[i] = l.Clone()
		}
		c.services[name] = csp
	}
	return c
}

// ErrUntrained reports prediction before any profile was added.
var ErrUntrained = errors.New("predictor: no profiles for service")

// features builds X = [Ψ..., log2(batch)] from a co-location
// architecture and the inference batch size. Batch enters in log scale
// so the learners see it on the same footing as layer counts. X is
// built in one allocation.
func features(arch model.Arch, batch int) []float64 {
	x := make([]float64, model.NumLayerKinds+1)
	for i, n := range arch {
		x[i] = float64(n)
	}
	x[model.NumLayerKinds] = math.Log2(float64(batch))
	return x
}

func (p *Predictor) svc(name string) *svcPredictor {
	sp, ok := p.services[name]
	if !ok {
		sp = &svcPredictor{}
		for i := range sp.learners {
			sp.learners[i] = learn.NewIncremental(p.seed + uint64(i)*7919)
		}
		p.services[name] = sp
	}
	return sp
}

// Train ingests a batch of offline profiles (typically the full
// Offline Profiler grid) and runs a model selection for each learner
// of the services in the batch, once each at the end (cheaper than
// refitting on every sample); a service's four selections run
// concurrently (see svcPredictor.fit). Services trained by earlier
// batches keep their models: a selection on unchanged samples would
// pick the same ones.
func (p *Predictor) Train(profiles []profiler.Profile) error {
	var touched []string
	for i := range profiles {
		if err := p.add(profiles[i], false); err != nil {
			return err
		}
		if name := profiles[i].Service; !slices.Contains(touched, name) {
			touched = append(touched, name)
		}
	}
	for _, name := range touched {
		if err := p.services[name].fit(name, true); err != nil {
			return err
		}
	}
	return nil
}

// Update ingests one new online profile (a newly observed co-location)
// and refits incrementally — the paper's adaptation path that drives
// Fig. 12's error-vs-samples curve. A learner refits the family Train
// selected for it and runs no selection of its own (see
// learn.Incremental.Refit); only a service learned online alone
// selects, once, when its learners first hold enough samples to
// cross-validate. Every learner of the service takes the profile's
// sample before any refits, so the four always hold the same samples,
// and the learners due a refit refit concurrently (see
// svcPredictor.fit). A profile rejected with an error (no service, an
// invalid curve, a batch size ≤ 0) changes nothing; a refit error
// leaves the sample learned.
//
// Once the profile is learned, Update scores the curve predicted for
// it just before (see Stats). A service without a learned profile has
// no prediction to score. Scoring only predicts, so it changes no
// model.
func (p *Predictor) Update(profile profiler.Profile) error {
	pred, untrained := p.PredictCurve(profile.Service, profile.Batch, profile.ColocArch())
	if err := p.add(profile, true); err != nil {
		return err
	}
	if untrained == nil {
		p.score.add(pred, profile)
	}
	return nil
}

// add scores pred against the profile it predicted.
func (s *prequential) add(pred piecewise.Func, profile profiler.Profile) {
	s.scored++
	got, truth := pred.Params(), profile.Curve.Params()
	for i, v := range truth {
		if v != 0 {
			s.targetAPE[i] += math.Abs(got[i]-v) / math.Abs(v)
			s.targetN[i]++
		}
	}
	var sum float64
	var n int
	for _, sm := range profile.Samples {
		if sm.Latency != 0 {
			sum += math.Abs(pred.Eval(sm.Delta)-sm.Latency) / math.Abs(sm.Latency)
			n++
		}
	}
	if n > 0 {
		s.latAPE += sum
		s.latN += n
		s.curve = append(s.curve, sum/float64(n))
	}
}

// Stats returns a snapshot of the prequential error and refit counts.
func (p *Predictor) Stats() Stats {
	s := Stats{Scored: p.score.scored, Curve: slices.Clone(p.score.curve)}
	for i, n := range p.score.targetN {
		if n > 0 {
			s.TargetMAPE[i] = p.score.targetAPE[i] / float64(n)
		}
	}
	if p.score.latN > 0 {
		s.LatencyMAPE = p.score.latAPE / float64(p.score.latN)
	}
	for _, sp := range p.services {
		for _, l := range sp.learners {
			r, sel := l.Refits()
			s.Refits += r
			s.Selections += sel
		}
	}
	return s
}

func (p *Predictor) add(profile profiler.Profile, refit bool) error {
	if profile.Service == "" {
		return errors.New("predictor: profile without service")
	}
	if profile.Batch <= 0 {
		return fmt.Errorf("predictor: profile of %s at batch %d, want > 0", profile.Service, profile.Batch)
	}
	if err := profile.Curve.Validate(); err != nil {
		return fmt.Errorf("predictor: profile curve: %w", err)
	}
	sp := p.svc(profile.Service)
	sp.gen++
	arch := profile.ColocArch()
	x := features(arch, profile.Batch)
	y := profile.Curve.Params()
	group := fmt.Sprint(arch)
	// The four learners keep this one row, which none of them writes.
	for i, l := range sp.learners {
		l.Add(x, y[i], group)
	}
	if !refit {
		return nil
	}
	return sp.fit(profile.Service, false)
}

// fit refits each of svc's learners that is due a refit
// (Incremental.RefitDue) — a fresh fit of its selected family, or its
// first selection if it has none — or, with sel, runs a model
// selection for all four. The fits run concurrently: the first on the calling goroutine,
// the rest on goroutines it waits for, so a call that fits nothing
// starts no goroutine. That is deterministic at any GOMAXPROCS: the
// learners share no mutable state (each owns its samples, seed, RNG
// and model scratch, and a fit publishes a fresh model that is never
// mutated), so each fits exactly as it would alone. It returns the
// first error in target order (k1, k2, Δ0, l0), naming the service and
// the target.
func (sp *svcPredictor) fit(svc string, sel bool) error {
	op, do := "refit", (*learn.Incremental).Refit
	if sel {
		op, do = "select", (*learn.Incremental).Select
	}
	due := func(l *learn.Incremental) bool { return sel || l.RefitDue() }
	own := slices.IndexFunc(sp.learners[:], due)
	if own < 0 {
		return nil
	}
	var errs [4]error
	var wg sync.WaitGroup
	for i, l := range sp.learners[own+1:] {
		if due(l) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[own+1+i] = do(l)
			}()
		}
	}
	errs[own] = do(sp.learners[own])
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("predictor: %s %s %s: %w", op, svc, targetNames[i], err)
		}
	}
	return nil
}

// PredictCurve predicts the latency curve of svc at the given batch
// when co-located with training tasks whose cumulative architecture is
// arch. The result is sanitized into a valid piecewise function.
func (p *Predictor) PredictCurve(svc string, batch int, arch model.Arch) (piecewise.Func, error) {
	sp, ok := p.services[svc]
	if !ok {
		return piecewise.Func{}, fmt.Errorf("%w: %s", ErrUntrained, svc)
	}
	x := features(arch, batch)
	var y [4]float64
	for i, l := range sp.learners {
		v, ok := l.Predict(x)
		if !ok {
			return piecewise.Func{}, fmt.Errorf("%w: %s/%s", ErrUntrained, svc, targetNames[i])
		}
		y[i] = v
	}
	return piecewise.FromParams(y), nil
}

// AvgSlope returns the mean of the predicted curve's average slopes
// over the standard batch sizes — the Device Selector's interference
// score (§5.2): smaller means both less SLO pressure on svc and less
// sensitivity to the partition size. Slopes are normalized by the
// service's *solo* knee latency at each batch so scores are comparable
// across services with very different latency scales (a raw
// milliseconds-per-Δ slope would systematically penalize slow-but-
// loose-SLO services like YOLOS). It also returns the co-located curves
// it predicted, one per batch size in model.BatchSizes order.
func (p *Predictor) AvgSlope(svc string, arch model.Arch) (float64, []piecewise.Func, error) {
	var sum float64
	batches := model.BatchSizes()
	curves := make([]piecewise.Func, len(batches))
	for i, b := range batches {
		curve, err := p.PredictCurve(svc, b, arch)
		if err != nil {
			return 0, nil, err
		}
		solo, err := p.PredictCurve(svc, b, model.Arch{})
		if err != nil {
			return 0, nil, err
		}
		scale := solo.L0
		if scale <= 0 {
			scale = 1
		}
		sum += curve.AvgSlope() / scale
		curves[i] = curve
	}
	return sum / float64(len(batches)), curves, nil
}

// ModelNames reports which model family won selection for each target
// of a service — the labels atop Fig. 11's bars.
func (p *Predictor) ModelNames(svc string) ([4]string, error) {
	sp, ok := p.services[svc]
	if !ok {
		return [4]string{}, fmt.Errorf("%w: %s", ErrUntrained, svc)
	}
	var out [4]string
	for i, l := range sp.learners {
		out[i] = l.ModelName()
	}
	return out, nil
}

// Samples returns the number of profiles ingested for a service.
func (p *Predictor) Samples(svc string) int {
	sp, ok := p.services[svc]
	if !ok {
		return 0
	}
	return sp.learners[0].N()
}

// Generation returns svc's generation: it moves whenever Train or
// Update adds a profile for svc and at no other time, so every
// prediction for svc (PredictCurve, AvgSlope) is a pure function of
// its inputs and the generation. A service never trained is at
// generation 0.
func (p *Predictor) Generation(svc string) uint64 {
	sp, ok := p.services[svc]
	if !ok {
		return 0
	}
	return sp.gen
}
