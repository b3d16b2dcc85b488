// Trace-v2 generators: composable, random-access-deterministic QPS
// shapes. Every generator derives its noise from xrand.DeriveSeed keyed
// by a quantised time bucket, so At(t) depends only on (config, t) —
// never on call order or worker count — which is what lets scenario
// traces reproduce bit-for-bit at any parallelism.
package trace

import (
	"fmt"
	"math"

	"mudi/internal/xrand"
)

// ConfigError reports one invalid generator configuration field, in the
// style of mudi's *OptionError.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("trace: invalid config %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Harmonic is one periodic component of a diurnal/weekly pattern.
type Harmonic struct {
	PeriodSec float64 // e.g. 86400 for daily, 604800 for weekly
	Amp       float64 // amplitude as a fraction of base (0.3 → ±30%)
	PhaseSec  float64 // shift: peak occurs at PhaseSec + PeriodSec/4
}

// DiurnalConfig shapes a multi-period sinusoidal QPS trace with seeded
// noise — ROADMAP item 4's "multi-period diurnal/weekly patterns".
type DiurnalConfig struct {
	Base      float64    // mean arrival rate (req/s)
	Harmonics []Harmonic // summed periodic components
	NoiseFrac float64    // per-bucket multiplicative noise stddev (fraction of base)
	StepSec   float64    // noise bucket width; 0 selects 10 s
	Seed      uint64
}

func (c DiurnalConfig) validate() error {
	if c.Base <= 0 || !isFinite(c.Base) {
		return &ConfigError{Field: "Base", Value: c.Base, Reason: "must be finite and > 0 (zero QPS makes an empty workload)"}
	}
	for i, h := range c.Harmonics {
		if h.PeriodSec <= 0 || !isFinite(h.PeriodSec) {
			return &ConfigError{Field: fmt.Sprintf("Harmonics[%d].PeriodSec", i), Value: h.PeriodSec, Reason: "must be finite and > 0"}
		}
		if h.Amp < 0 || !isFinite(h.Amp) {
			return &ConfigError{Field: fmt.Sprintf("Harmonics[%d].Amp", i), Value: h.Amp, Reason: "must be finite and >= 0"}
		}
	}
	if c.NoiseFrac < 0 || !isFinite(c.NoiseFrac) {
		return &ConfigError{Field: "NoiseFrac", Value: c.NoiseFrac, Reason: "must be finite and >= 0"}
	}
	if c.StepSec < 0 {
		return &ConfigError{Field: "StepSec", Value: c.StepSec, Reason: "must be >= 0 (0 selects 10 s)"}
	}
	return nil
}

// DiurnalQPS is the sum-of-sinusoids trace. At(t) is pure in t.
type DiurnalQPS struct {
	cfg DiurnalConfig
}

// NewDiurnalQPS validates the config and builds the trace.
func NewDiurnalQPS(cfg DiurnalConfig) (*DiurnalQPS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StepSec == 0 {
		cfg.StepSec = 10
	}
	return &DiurnalQPS{cfg: cfg}, nil
}

// At implements QPSTrace. The periodic part is analytic; the noise part
// is a per-bucket lognormal-ish factor drawn from a stream derived from
// (seed, bucket index), so any two calls at the same t agree regardless
// of history.
func (d *DiurnalQPS) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	c := d.cfg
	v := c.Base
	for _, h := range c.Harmonics {
		v += c.Base * h.Amp * math.Sin(2*math.Pi*(t-h.PhaseSec)/h.PeriodSec)
	}
	if c.NoiseFrac > 0 {
		bucket := uint64(t / c.StepSec)
		rng := xrand.New(xrand.DeriveSeed(c.Seed, bucket))
		v += c.Base * c.NoiseFrac * rng.Normal(0, 1)
	}
	if v < 0 {
		return 0
	}
	return v
}

// RampConfig shapes a gradual level shift — a model rollout migrating
// traffic from one service build to its replacement, or a slow organic
// growth ramp.
type RampConfig struct {
	From     float64 // rate before StartSec
	To       float64 // rate after StartSec+DurSec
	StartSec float64
	DurSec   float64 // 0 makes a step at StartSec
}

func (c RampConfig) validate() error {
	if c.From < 0 || !isFinite(c.From) {
		return &ConfigError{Field: "From", Value: c.From, Reason: "must be finite and >= 0"}
	}
	if c.To < 0 || !isFinite(c.To) {
		return &ConfigError{Field: "To", Value: c.To, Reason: "must be finite and >= 0"}
	}
	if c.From == 0 && c.To == 0 {
		return &ConfigError{Field: "To", Value: c.To, Reason: "zero QPS at both ends makes an empty workload"}
	}
	if c.StartSec < 0 || !isFinite(c.StartSec) {
		return &ConfigError{Field: "StartSec", Value: c.StartSec, Reason: "must be finite and >= 0"}
	}
	if c.DurSec < 0 || !isFinite(c.DurSec) {
		return &ConfigError{Field: "DurSec", Value: c.DurSec, Reason: "must be finite and >= 0 (negative duration)"}
	}
	return nil
}

// RampQPS interpolates linearly between two levels over a window.
type RampQPS struct {
	cfg RampConfig
}

// NewRampQPS validates the config and builds the trace.
func NewRampQPS(cfg RampConfig) (*RampQPS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &RampQPS{cfg: cfg}, nil
}

// At implements QPSTrace.
func (r *RampQPS) At(t float64) float64 {
	c := r.cfg
	switch {
	case t <= c.StartSec:
		return c.From
	case c.DurSec == 0 || t >= c.StartSec+c.DurSec:
		return c.To
	default:
		frac := (t - c.StartSec) / c.DurSec
		return c.From + frac*(c.To-c.From)
	}
}

// FlashCrowdConfig shapes a flash-crowd episode: a sharp multiplicative
// spike with exponential decay back to the inner trace's level — the
// "breaking news" pattern burst injectors model.
type FlashCrowdConfig struct {
	StartSec   float64
	PeakFactor float64 // multiplier at the spike's onset (> 1)
	DecaySec   float64 // e-folding time of the decay back to 1×
}

func (c FlashCrowdConfig) validate() error {
	if c.StartSec < 0 || !isFinite(c.StartSec) {
		return &ConfigError{Field: "StartSec", Value: c.StartSec, Reason: "must be finite and >= 0"}
	}
	if c.PeakFactor <= 1 || !isFinite(c.PeakFactor) {
		return &ConfigError{Field: "PeakFactor", Value: c.PeakFactor, Reason: "must be finite and > 1 (a flash crowd amplifies load)"}
	}
	if c.DecaySec <= 0 || !isFinite(c.DecaySec) {
		return &ConfigError{Field: "DecaySec", Value: c.DecaySec, Reason: "must be finite and > 0"}
	}
	return nil
}

// FlashCrowdQPS wraps an inner trace with one flash-crowd episode.
type FlashCrowdQPS struct {
	Inner QPSTrace
	cfg   FlashCrowdConfig
}

// NewFlashCrowdQPS validates the config and wraps inner.
func NewFlashCrowdQPS(inner QPSTrace, cfg FlashCrowdConfig) (*FlashCrowdQPS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, &ConfigError{Field: "Inner", Value: nil, Reason: "flash crowd needs an inner trace to amplify"}
	}
	return &FlashCrowdQPS{Inner: inner, cfg: cfg}, nil
}

// At implements QPSTrace.
func (f *FlashCrowdQPS) At(t float64) float64 {
	v := f.Inner.At(t)
	if t < f.cfg.StartSec {
		return v
	}
	factor := 1 + (f.cfg.PeakFactor-1)*math.Exp(-(t-f.cfg.StartSec)/f.cfg.DecaySec)
	return v * factor
}

// BurstStormConfig shapes correlated multi-service bursts: NBursts
// episodes at seeded times in [0, HorizonSec), each hitting every
// subscribed stream simultaneously (the correlated-failure analogue on
// the load side — e.g. an upstream gateway retry storm).
type BurstStormConfig struct {
	HorizonSec float64
	NBursts    int
	MinFactor  float64 // per-episode factor drawn in [MinFactor, MaxFactor]
	MaxFactor  float64
	DurSec     float64 // episode length
	Seed       uint64
}

func (c BurstStormConfig) validate() error {
	if c.HorizonSec <= 0 || !isFinite(c.HorizonSec) {
		return &ConfigError{Field: "HorizonSec", Value: c.HorizonSec, Reason: "must be finite and > 0 (negative or zero duration)"}
	}
	if c.NBursts <= 0 {
		return &ConfigError{Field: "NBursts", Value: c.NBursts, Reason: "must be > 0"}
	}
	if c.MinFactor <= 0 || !isFinite(c.MinFactor) {
		return &ConfigError{Field: "MinFactor", Value: c.MinFactor, Reason: "must be finite and > 0"}
	}
	if c.MaxFactor < c.MinFactor || !isFinite(c.MaxFactor) {
		return &ConfigError{Field: "MaxFactor", Value: c.MaxFactor, Reason: "must be finite and >= MinFactor"}
	}
	if c.DurSec <= 0 || !isFinite(c.DurSec) {
		return &ConfigError{Field: "DurSec", Value: c.DurSec, Reason: "must be finite and > 0"}
	}
	return nil
}

// BurstStorm generates the shared episode schedule. Streams that should
// burst together all wrap themselves with the same storm's Bursts, so
// the correlation is exact by construction.
type BurstStorm struct {
	Episodes []Burst
}

// NewBurstStorm draws the episode schedule. Episode i's start and
// factor come from the stream DeriveSeed(seed, i), so the schedule is
// identical however many storms are built concurrently.
func NewBurstStorm(cfg BurstStormConfig) (*BurstStorm, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eps := make([]Burst, cfg.NBursts)
	for i := range eps {
		rng := xrand.New(xrand.DeriveSeed(cfg.Seed, uint64(i)))
		start := rng.Float64() * (cfg.HorizonSec - cfg.DurSec)
		if start < 0 {
			start = 0
		}
		eps[i] = Burst{
			Start:  start,
			End:    start + cfg.DurSec,
			Factor: rng.Range(cfg.MinFactor, cfg.MaxFactor),
		}
	}
	return &BurstStorm{Episodes: eps}, nil
}

// Apply wraps a stream with this storm's correlated episodes, indexed
// once for the returned trace.
func (s *BurstStorm) Apply(inner QPSTrace) QPSTrace {
	return NewBurstyQPS(inner, NewBurstSchedule(s.Episodes))
}

// FailoverConfig shapes a regional-failover shift: at ShiftSec, the
// "failed region"'s streams drop to LossFrac of their level while the
// "receiving region"'s streams absorb the displaced traffic, scaled by
// GainFactor; both recover at RecoverSec (0 = never, the shift holds).
type FailoverConfig struct {
	ShiftSec   float64
	RecoverSec float64 // 0 means the shift persists to the horizon
	LossFrac   float64 // remaining fraction in the failed region, in [0, 1)
	GainFactor float64 // multiplier applied to receiving streams (> 1)
}

func (c FailoverConfig) validate() error {
	if c.ShiftSec < 0 || !isFinite(c.ShiftSec) {
		return &ConfigError{Field: "ShiftSec", Value: c.ShiftSec, Reason: "must be finite and >= 0"}
	}
	if c.RecoverSec != 0 && (c.RecoverSec <= c.ShiftSec || !isFinite(c.RecoverSec)) {
		return &ConfigError{Field: "RecoverSec", Value: c.RecoverSec, Reason: "must be 0 (no recovery) or finite and > ShiftSec"}
	}
	if c.LossFrac < 0 || c.LossFrac >= 1 || !isFinite(c.LossFrac) {
		return &ConfigError{Field: "LossFrac", Value: c.LossFrac, Reason: "must be in [0, 1)"}
	}
	if c.GainFactor <= 1 || !isFinite(c.GainFactor) {
		return &ConfigError{Field: "GainFactor", Value: c.GainFactor, Reason: "must be finite and > 1 (receiving region absorbs traffic)"}
	}
	return nil
}

// FailoverShift derives the per-side wrappers for one failover event:
// each side is one burst episode over [ShiftSec, RecoverSec), or to
// +Inf when RecoverSec is 0.
type FailoverShift struct {
	failed, receiving *BurstSchedule
}

// NewFailoverShift validates the config.
func NewFailoverShift(cfg FailoverConfig) (*FailoverShift, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	end := cfg.RecoverSec
	if end == 0 {
		end = math.Inf(1)
	}
	return &FailoverShift{
		failed:    NewBurstSchedule([]Burst{{Start: cfg.ShiftSec, End: end, Factor: cfg.LossFrac}}),
		receiving: NewBurstSchedule([]Burst{{Start: cfg.ShiftSec, End: end, Factor: cfg.GainFactor}}),
	}, nil
}

// Failed wraps a stream in the region that goes dark.
func (f *FailoverShift) Failed(inner QPSTrace) QPSTrace { return NewBurstyQPS(inner, f.failed) }

// Receiving wraps a stream in the region that absorbs the traffic.
func (f *FailoverShift) Receiving(inner QPSTrace) QPSTrace { return NewBurstyQPS(inner, f.receiving) }
