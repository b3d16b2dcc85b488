// Package scenario packages the named workload scenarios — the
// test-first substrate later roadmap items replay against. Each
// scenario is a pure function of (name, seed): it composes the trace
// generators into per-device QPS streams, samples them onto a fixed
// grid, draws a cohort-based training arrival sequence, and assembles
// everything into one trace-v2 document. Every random draw flows
// through xrand.DeriveSeed, so a scenario trace is bit-reproducible at
// any worker count — the golden fixtures under testdata/ pin that.
package scenario

import (
	"fmt"

	"mudi/internal/model"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// Scenario is one named workload shape.
type Scenario struct {
	Name        string
	Description string
	Devices     int
	HorizonSec  float64
	StepSec     float64 // QPS sampling grid

	// stream builds device i's QPS shape; svc is the service deployed
	// there (catalog round-robin, mirroring the cluster's layout).
	stream func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error)
	// cohorts is the training arrival population mix.
	cohorts    []trace.Cohort
	taskCount  int
	scaleIters float64
}

// Seed-derivation cells: each independent random surface of a scenario
// draws from its own DeriveSeed cell so adding one never shifts
// another.
const (
	cellStreams = 1 << 32 // + stream index
	cellTasks   = 2 << 32
	cellStorm   = 3 << 32
)

// Names lists the scenario names in presentation order.
func Names() []string {
	defs := All()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// ByName resolves one scenario.
func ByName(name string) (Scenario, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Scenario{}, false
}

// Build generates the named scenario's trace under a seed.
func Build(name string, seed uint64) (*trace.Trace, error) {
	sc, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, Names())
	}
	return sc.Build(seed)
}

// Build generates the scenario's trace-v2 document.
func (sc Scenario) Build(seed uint64) (*trace.Trace, error) {
	services := model.Services()
	tr := &trace.Trace{
		Header: trace.Header{
			Version:   trace.SchemaVersion,
			Seed:      seed,
			TimeBase:  trace.TimeBaseSeconds,
			Devices:   sc.Devices,
			MIGSlices: 1,
		},
	}
	for i := 0; i < sc.Devices; i++ {
		svc := services[i%len(services)]
		id := fmt.Sprintf("gpu%04d", i)
		tr.Header.Streams = append(tr.Header.Streams, trace.StreamDef{ID: id, Service: svc.Name})
		q, err := sc.stream(seed, i, svc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: stream %s: %w", sc.Name, id, err)
		}
		tr.QPS = append(tr.QPS, sampleSteps(q, id, sc.HorizonSec, sc.StepSec)...)
	}
	arrivals, err := trace.CohortTrace(trace.CohortConfig{
		Cohorts:    sc.cohorts,
		Count:      sc.taskCount,
		ScaleIters: sc.scaleIters,
		Seed:       xrand.DeriveSeed(seed, cellTasks),
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	for _, a := range arrivals {
		tr.Tasks = append(tr.Tasks, trace.TaskRec{
			ID: a.ID, T: a.At, Task: a.Task.Name, Iters: a.Iters,
			GPUs: a.GPUsReq, Cohort: a.Cohort, Priority: a.Priority,
		})
	}
	total := 0.0
	for _, c := range sc.cohorts {
		total += c.Weight
	}
	for _, c := range sc.cohorts {
		tr.Header.Cohorts = append(tr.Header.Cohorts, trace.CohortDef{
			Name: c.Name, Weight: c.Weight / total,
		})
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: generated invalid trace: %w", sc.Name, err)
	}
	return tr, nil
}

// sampleSteps samples a QPS trace onto the grid in change-only step
// form: the t=0 level always, then a sample whenever the value moves.
// The grid index is integral so the sampled times carry no accumulated
// float drift.
func sampleSteps(q trace.QPSTrace, stream string, horizon, step float64) []trace.QPSSample {
	var out []trace.QPSSample
	last := 0.0
	for k := 0; ; k++ {
		t := float64(k) * step
		if t >= horizon {
			break
		}
		v := q.At(t)
		if v < 0 {
			v = 0
		}
		if k == 0 || v != last {
			out = append(out, trace.QPSSample{Stream: stream, T: t, QPS: v})
			last = v
		}
	}
	return out
}

// MeanPeakQPS computes a stream's time-weighted mean and peak over the
// horizon — the statistics the validation tests pin.
func MeanPeakQPS(tr *trace.Trace, stream string, horizon float64) (mean, peak float64) {
	s, err := tr.Stream(stream)
	if err != nil || len(s.Times) == 0 {
		return 0, 0
	}
	var area float64
	for i := range s.Times {
		end := horizon
		if i+1 < len(s.Times) {
			end = s.Times[i+1]
		}
		if end > horizon {
			end = horizon
		}
		if end > s.Times[i] {
			area += s.Vals[i] * (end - s.Times[i])
		}
		if s.Vals[i] > peak {
			peak = s.Vals[i]
		}
	}
	return area / horizon, peak
}

// CohortShares returns the trace's realised cohort shares, sorted
// deterministically by the caller via the returned map.
func CohortShares(tr *trace.Trace) map[string]float64 {
	if len(tr.Tasks) == 0 {
		return nil
	}
	shares := make(map[string]float64)
	for _, rec := range tr.Tasks {
		shares[rec.Cohort]++
	}
	for k := range shares {
		shares[k] /= float64(len(tr.Tasks))
	}
	return shares
}

// All returns the scenario library in presentation order.
func All() []Scenario {
	return []Scenario{
		steadyBaseline(),
		flashCrowd(),
		diurnalWeek(),
		regionalFailover(),
		correlatedBursts(),
		modelRollout(),
	}
}

// researchProd is the default two-population mix: interactive research
// submissions (small tasks, bursty) and production retraining (larger
// tasks, higher priority, steadier cadence).
func researchProd() []trace.Cohort {
	return []trace.Cohort{
		{
			Name: "research", Weight: 0.6, MeanGapSec: 35, BurstProb: 0.25,
			SizeMix: map[model.SizeClass]float64{model.SizeS: 3, model.SizeM: 1},
		},
		{
			Name: "production", Weight: 0.4, MeanGapSec: 55, Priority: 5,
			SizeMix: map[model.SizeClass]float64{model.SizeM: 2, model.SizeL: 1},
		},
	}
}

// steadyBaseline: flat QPS at each service's catalog rate, a single
// well-behaved cohort — the control every other scenario is read
// against.
func steadyBaseline() Scenario {
	return Scenario{
		Name:        "steady-baseline",
		Description: "flat catalog-rate QPS, one steady cohort (control)",
		Devices:     4, HorizonSec: 600, StepSec: 10,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			return trace.ConstantQPS(svc.BaseQPS), nil
		},
		cohorts: []trace.Cohort{
			{Name: "steady", Weight: 1, MeanGapSec: 45, BurstProb: 0.1,
				SizeMix: map[model.SizeClass]float64{model.SizeS: 2, model.SizeM: 1}},
		},
		taskCount: 10, scaleIters: 0.001,
	}
}

// flashCrowd: one service (device 0) takes a 3× spike at t=200 s that
// decays back over ~a minute; the rest of the fleet idles along with
// mild noise.
func flashCrowd() Scenario {
	return Scenario{
		Name:        "flash-crowd",
		Description: "3× spike on one service at t=200s, exponential decay (τ=60s)",
		Devices:     4, HorizonSec: 600, StepSec: 5,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			base, err := trace.NewDiurnalQPS(trace.DiurnalConfig{
				Base: svc.BaseQPS, NoiseFrac: 0.03, StepSec: 5,
				Seed: xrand.DeriveSeed(seed, cellStreams+uint64(i)),
			})
			if err != nil {
				return nil, err
			}
			if i != 0 {
				return base, nil
			}
			return trace.NewFlashCrowdQPS(base, trace.FlashCrowdConfig{
				StartSec: 200, PeakFactor: 3, DecaySec: 60,
			})
		},
		cohorts:   researchProd(),
		taskCount: 10, scaleIters: 0.001,
	}
}

// diurnalWeek: seven compressed 360 s "days" of daily + weekly
// sinusoids with per-bucket noise; cohorts split into daytime research
// and a nightly batch population.
func diurnalWeek() Scenario {
	return Scenario{
		Name:        "diurnal-week",
		Description: "7 compressed days: daily (360s) + weekly (2520s) harmonics, 4% noise",
		Devices:     4, HorizonSec: 2520, StepSec: 5,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			return trace.NewDiurnalQPS(trace.DiurnalConfig{
				Base: svc.BaseQPS,
				Harmonics: []trace.Harmonic{
					{PeriodSec: 360, Amp: 0.35, PhaseSec: float64(i) * 30},
					{PeriodSec: 2520, Amp: 0.15},
				},
				NoiseFrac: 0.04, StepSec: 5,
				Seed: xrand.DeriveSeed(seed, cellStreams+uint64(i)),
			})
		},
		cohorts: []trace.Cohort{
			{Name: "daytime-research", Weight: 0.65, MeanGapSec: 120, BurstProb: 0.2,
				SizeMix: map[model.SizeClass]float64{model.SizeS: 3, model.SizeM: 1}},
			{Name: "nightly-batch", Weight: 0.35, MeanGapSec: 240, Priority: 2,
				SizeMix: map[model.SizeClass]float64{model.SizeM: 2, model.SizeL: 1}},
		},
		taskCount: 14, scaleIters: 0.001,
	}
}

// regionalFailover: devices 0–1 are the failing "region" (traffic drops
// to 20%), devices 2–3 absorb the displaced load at 1.8× between
// t=300 s and t=600 s.
func regionalFailover() Scenario {
	return Scenario{
		Name:        "regional-failover",
		Description: "region A drops to 20% at t=300s, region B absorbs 1.8×, recovery at t=600s",
		Devices:     4, HorizonSec: 900, StepSec: 5,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			base, err := trace.NewDiurnalQPS(trace.DiurnalConfig{
				Base: svc.BaseQPS, NoiseFrac: 0.03, StepSec: 5,
				Seed: xrand.DeriveSeed(seed, cellStreams+uint64(i)),
			})
			if err != nil {
				return nil, err
			}
			shift, err := trace.NewFailoverShift(trace.FailoverConfig{
				ShiftSec: 300, RecoverSec: 600, LossFrac: 0.2, GainFactor: 1.8,
			})
			if err != nil {
				return nil, err
			}
			if i < 2 {
				return shift.Failed(base), nil
			}
			return shift.Receiving(base), nil
		},
		cohorts:   researchProd(),
		taskCount: 10, scaleIters: 0.001,
	}
}

// correlatedBursts: five storm episodes hit every stream
// simultaneously (1.5–2.5× for 45 s each) — the load-side analogue of
// correlated failures.
func correlatedBursts() Scenario {
	return Scenario{
		Name:        "correlated-bursts",
		Description: "5 correlated 45s burst episodes (1.5–2.5×) across all streams",
		Devices:     4, HorizonSec: 900, StepSec: 5,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			// One storm per seed: every stream derives the same episode
			// schedule, so the bursts are correlated by construction.
			storm, err := trace.NewBurstStorm(trace.BurstStormConfig{
				HorizonSec: 900, NBursts: 5, MinFactor: 1.5, MaxFactor: 2.5,
				DurSec: 45, Seed: xrand.DeriveSeed(seed, cellStorm),
			})
			if err != nil {
				return nil, err
			}
			return storm.Apply(trace.ConstantQPS(svc.BaseQPS)), nil
		},
		cohorts:   researchProd(),
		taskCount: 10, scaleIters: 0.001,
	}
}

// modelRollout: even devices run the old service build ramping down
// from 100% to 25% of its traffic over t=200–500 s while odd devices
// run the replacement ramping up over the same window.
func modelRollout() Scenario {
	return Scenario{
		Name:        "model-rollout",
		Description: "gradual rollout t=200–500s: old build 100%→25%, new build 25%→100%",
		Devices:     4, HorizonSec: 800, StepSec: 5,
		stream: func(seed uint64, i int, svc model.InferenceService) (trace.QPSTrace, error) {
			if i%2 == 0 {
				return trace.NewRampQPS(trace.RampConfig{
					From: svc.BaseQPS, To: 0.25 * svc.BaseQPS, StartSec: 200, DurSec: 300,
				})
			}
			return trace.NewRampQPS(trace.RampConfig{
				From: 0.25 * svc.BaseQPS, To: svc.BaseQPS, StartSec: 200, DurSec: 300,
			})
		},
		cohorts: []trace.Cohort{
			{Name: "rollout-canary", Weight: 0.3, MeanGapSec: 60, Priority: 5,
				SizeMix: map[model.SizeClass]float64{model.SizeS: 1}},
			{Name: "steady", Weight: 0.7, MeanGapSec: 40, BurstProb: 0.15,
				SizeMix: map[model.SizeClass]float64{model.SizeS: 2, model.SizeM: 1}},
		},
		taskCount: 10, scaleIters: 0.001,
	}
}
