package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	// tuneCurves is Configure's buffer for the tuner's curves, aligned
	// with slope.batches; Tune keeps no reference to it.
	tuneCurves []piecewise.Func
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
	m.tuneCurves = make([]piecewise.Func, len(m.slope.batches))
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

// addProfiles seeds a new Mudi's fitted-curve cache from offline
// profiles (the Offline Profiler grid), alongside predictor training.
// The cache is sized for every profile up front: growing it one entry
// at a time rehashes it several times, about half of a warm Build.
func (m *Mudi) addProfiles(profiles []profiler.Profile) {
	m.curves = make(map[curveKey]piecewise.Func, len(profiles))
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

// colocArch is the cumulative Ψ of the resident tasks (§5.5:
// "designates the cumulative feature layers as Ψ"). It indexes the
// residents rather than ranging over copies of them.
func colocArch(resident []model.TrainingTask) model.Arch {
	var a model.Arch
	for i := range resident {
		a = a.Add(resident[i].Arch)
	}
	return a
}

// slopeScorer is the Device Selector of §5.2: it scores a device by
// the predicted leftover share at its own QPS and SLO, weighted by the
// negated predicted average slope, and picks the best-scoring device.
//
// The predictor's outputs depend only on (service, Ψ) and the
// service's predictor generation, and a fleet has a handful of such
// pairs, so the scorer evaluates the predictor once per pair and
// generation (memo). The memo lives across SelectDevice calls: an
// entry stamped with an older generation than its service's current
// one is recomputed on its next use, so a predictor update is always
// seen and leaves other services' entries valid.
//
// A device's score then depends on the device only through its
// (service, Ψ) entry, its SLO and its QPS, so a call groups the
// eligible devices by (service, Ψ, SLO) and scores few devices per
// group (see pick). Each score runs one Eq. 4 solve per kept curve;
// solves counts them.
type slopeScorer struct {
	pred    *predictor.Predictor
	batches []int
	memo    map[colocKey]slopeEntry
	// groups and groupOf are pick's per-call tables, kept for their
	// capacity: the call's groups, and each view's index into them
	// (-1 for an ineligible view).
	groups  []selectGroup
	groupOf []int32
	// solves counts the Eq. 4 solves (MinDeltaFor calls) run so far.
	solves int
}

// slopeEntry is the predictor's output for one (service, Ψ) at the
// service's generation gen: the average slope or its error, and the
// predicted curves that pass Validate with their batch sizes. A batch
// whose predicted curve fails Validate has no solve and adds zero
// share, so it is validated once, when the entry is made, not per
// device.
type slopeEntry struct {
	gen     uint64
	slope   float64
	err     error
	batches []int
	curves  []piecewise.Func
}

// newSlopeEntry builds the entry for the predictor's output over
// batches (curves in batches order), keeping only the curves that pass
// Validate. When every curve passes, the entry shares both slices.
func newSlopeEntry(gen uint64, batches []int, slope float64, curves []piecewise.Func, err error) slopeEntry {
	e := slopeEntry{gen: gen, slope: slope, err: err, batches: batches, curves: curves}
	if !slices.ContainsFunc(curves, func(c piecewise.Func) bool { return c.Validate() != nil }) {
		return e
	}
	e.batches, e.curves = nil, nil
	for i, c := range curves {
		if c.Validate() == nil {
			e.batches = append(e.batches, batches[i])
			e.curves = append(e.curves, c)
		}
	}
	return e
}

// entry returns the memoized predictor output for key, evaluating it
// when the memo has none for the service's current generation.
func (p *slopeScorer) entry(key colocKey) slopeEntry {
	gen := p.pred.Generation(key.svc)
	if e, ok := p.memo[key]; ok && e.gen == gen {
		return e
	}
	slope, curves, err := p.pred.AvgSlope(key.svc, key.arch)
	e := newSlopeEntry(gen, p.batches, slope, curves, err)
	p.memo[key] = e
	return e
}

// score is the device's score from the entry at the device's QPS and
// SLO, averaging the leftover share over n batch candidates, with an
// upper bound on the score at every QPS ≥ qps under the same SLO.
//
// A smaller slope both reduces SLO pressure and lets the service
// shrink, "which is advantageous for optimizing the objective" (§5.2):
// quantify that advantage as the predicted leftover GPU share after
// Eq. 4 sizes the service at the device's current QPS, averaged over
// the batch candidates. Each solve is opt.MinPartition's with no
// headroom: the entry's curves are already validated, QPS and SLO are
// positive and every batch is, so only MinDeltaFor is left to run.
//
// The score does not always fall as QPS rises (see
// piecewise.Func.MinDeltaBound), so the bound sums the share each
// curve could reach at any budget up to this one: a higher QPS shrinks
// every budget, a curve infeasible here stays infeasible there, and
// float sums and quotients keep the order of their terms. A 1+slope
// that is not positive would break that order; the bound is then +Inf.
func (e *slopeEntry) score(qps, sloMs float64, n int) (score, bound float64) {
	var shareSum, boundSum float64
	if qps > 0 && sloMs > 0 {
		maxDelta := tuner.MaxDelta(true)
		for i, c := range e.curves {
			budget := opt.Budget(sloMs, e.batches[i], qps)
			if delta, ok := c.MinDeltaFor(budget, maxDelta); ok {
				shareSum += 1 - delta
				boundSum += 1 - c.MinDeltaBound(budget, maxDelta)
			}
		}
	}
	// Higher score = better; slopes are positive magnitudes.
	div := 1 + e.slope
	score = (0.05 + shareSum/float64(n)) / div
	bound = math.Inf(1)
	if div > 0 {
		bound = (0.05 + boundSum/float64(n)) / div
	}
	return score, bound
}

// selectGroup is one (service, Ψ, SLO) group of a selection call's
// eligible devices. Devices with QPS ≤ 0 or SLO ≤ 0 score the same
// constant whatever their SLO, so they form a group of their own per
// (service, Ψ), keyed by SLO 0.
type selectGroup struct {
	key colocKey
	// own reports that Ψ is the task's own arch (views without
	// residents), which a lookup need not compare.
	own bool
	slo float64
	e   slopeEntry
	// lowest is a view with the group's lowest QPS, lowQPS (any view
	// of the constant group): the group's best-bounded device. lowScore
	// and lowBound are its score and the score's bound.
	lowest                     int
	lowQPS, lowScore, lowBound float64
	// below is the lowest QPS known whose bound falls short of the
	// call's best score, and notAbove the lowest known whose bound does
	// not exceed it: no device at or above the first can tie the best,
	// nor one at or above the second beat it. NaN is none known, which
	// no QPS compares at or above.
	below, notAbove float64
}

// group returns the index of the call's group for (svc, *arch, slo),
// adding it when the call has not met it yet; own reports that arch is
// the task's own. A call meets few groups, so the lookup is a linear
// scan.
func (p *slopeScorer) group(svc string, arch *model.Arch, own bool, slo float64, view int) int {
	for i := range p.groups {
		if g := &p.groups[i]; g.slo == slo && g.key.svc == svc && (own && g.own || g.key.arch == *arch) {
			return i
		}
	}
	p.groups = append(p.groups, selectGroup{
		key: colocKey{svc, *arch}, own: own, slo: slo, lowest: view,
		lowQPS: math.Inf(1), below: math.NaN(), notAbove: math.NaN(),
	})
	return len(p.groups) - 1
}

// pick returns the eligible view with the highest score, ties to the
// smaller ID: core.PickMin's pick with cost −score, bit for bit.
//
// One pass groups the eligible views by (service, Ψ, SLO) and finds
// each group's lowest QPS. Each group's entry is resolved once and
// scored once, at that QPS (no solve for the constant group), and the
// best of those scores opens the call's best. A second pass offers
// every view at its group's lowest QPS, and every view of a constant
// group, at that score. The score's bound at a QPS covers every higher
// QPS of the group, so the second pass scores any other device only
// when its QPS is below the group's below mark, and, when it is at or
// above the notAbove mark, only when its ID beats the current pick;
// each score moves the marks down. With QPS in random device order
// that is about a logarithm's worth of scores per group that can reach
// the best, and none for the others. Views compare under PickMin's
// rule, IDs as strings.
func (p *slopeScorer) pick(task *model.TrainingTask, views []DeviceView, maxTrain int) (string, bool) {
	n := len(p.batches)
	p.groups = p.groups[:0]
	p.groupOf = slices.Grow(p.groupOf[:0], len(views))[:len(views)]
	for i := range views {
		v := &views[i]
		p.groupOf[i] = -1
		if !Eligible(v, maxTrain) {
			continue
		}
		// Ψ is the task's arch plus the residents'; a device without
		// residents (every eligible one under MaxTrainPerGPU 1) reads
		// the task's own, uncopied.
		arch := &task.Arch
		if len(v.ResidentTasks) > 0 {
			psi := task.Arch.Add(colocArch(v.ResidentTasks))
			arch = &psi
		}
		slo := v.SLOms
		if !(v.QPS > 0 && slo > 0) {
			slo = 0
		}
		gi := p.group(v.ServiceName, arch, len(v.ResidentTasks) == 0, slo, i)
		p.groupOf[i] = int32(gi)
		if g := &p.groups[gi]; slo > 0 && v.QPS < g.lowQPS {
			g.lowest, g.lowQPS = i, v.QPS
		}
	}

	bestID, best := "", math.Inf(1) // PickMin's cost: −score
	consider := func(id string, score float64) {
		if c := -score; c < best || (c == best && id < bestID) {
			bestID, best = id, c
		}
	}
	// mark records that the group's devices at QPS ≥ qps score at most
	// bound, against the best so far.
	mark := func(g *selectGroup, qps, bound float64) {
		if c := -bound; c > best && !(g.below <= qps) {
			g.below = qps
		} else if c == best && !(g.notAbove <= qps) {
			g.notAbove = qps
		}
	}
	for gi := range p.groups {
		g := &p.groups[gi]
		g.e = p.entry(g.key)
		if g.e.err != nil {
			continue
		}
		v := &views[g.lowest]
		g.lowScore, g.lowBound = g.e.score(v.QPS, g.slo, n)
		if g.slo > 0 {
			p.solves += len(g.e.curves)
		}
		consider(v.ID, g.lowScore)
	}
	for gi := range p.groups {
		// Each lowest view's bound, against the best of all groups.
		if g := &p.groups[gi]; g.e.err == nil && g.slo > 0 {
			mark(g, g.lowQPS, g.lowBound)
		}
	}
	for i := range views {
		gi := p.groupOf[i]
		if gi < 0 {
			continue
		}
		g := &p.groups[gi]
		v := &views[i]
		if g.e.err != nil {
			continue
		}
		if g.slo == 0 || v.QPS == g.lowQPS {
			consider(v.ID, g.lowScore) // scores as the lowest view does
			continue
		}
		if v.QPS >= g.below || (v.QPS >= g.notAbove && v.ID >= bestID) {
			continue
		}
		s, u := g.e.score(v.QPS, g.slo, n)
		p.solves += len(g.e.curves)
		consider(v.ID, s)
		mark(g, v.QPS, u)
	}
	return bestID, bestID != ""
}

// SelectSolves returns the Eq. 4 solves the Device Selector has run.
func (m *Mudi) SelectSolves() int { return m.slope.solves }

// SelectDevice implements Policy (§5.2): assign the task to the device
// whose service shows the smallest predicted average slope across the
// batch-size set — the eligible device with the highest score, ties to
// the smaller ID.
func (m *Mudi) SelectDevice(task model.TrainingTask, views []DeviceView, _ map[string]Measurer) (string, bool) {
	return m.slope.pick(&task, views, m.cfg.MaxTrainPerGPU)
}

// Configure implements Policy (§5.3): predicted curves feed the
// two-phase Tuner episode.
func (m *Mudi) Configure(view DeviceView, meas Measurer) (Decision, error) {
	if view.ServiceName == "" {
		return Decision{}, fmt.Errorf("core: device %s has no inference service", view.ID)
	}
	// The tuner reads every candidate's curve several times per
	// episode: resolve each one once, into the policy's own buffer.
	coloc := colocKey{view.ServiceName, colocArch(view.ResidentTasks)}
	for i, b := range m.slope.batches {
		m.tuneCurves[i] = m.tuneCurve(coloc, b, view.SLOms)
	}
	req := tuner.Request{
		QPS:         view.QPS,
		SLOms:       view.SLOms,
		Candidates:  m.slope.batches,
		Curves:      m.tuneCurves,
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
		budget := opt.Budget(view.SLOms, dec.Batch, view.QPS)
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

// tuneCurve is the latency curve Configure plans batch b with: the
// exact fit for the co-location when there is one, else the
// predictor's generalization.
func (m *Mudi) tuneCurve(coloc colocKey, b int, sloMs float64) piecewise.Func {
	if c, ok := m.curves[curveKey{coloc, b}]; ok {
		return c
	}
	c, err := m.pred.PredictCurve(coloc.svc, b, coloc.arch)
	if err != nil {
		// Untrained service: a conservative steep default makes the
		// solver allocate generously rather than violate the SLO.
		return piecewise.Func{K1: -10 * sloMs, K2: -0.1 * sloMs, Cutoff: 0.6, L0: sloMs / 2}
	}
	return c
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
