// Package faults implements deterministic fault injection for the
// cluster simulator: device failure/recovery windows, transient
// measurement errors, shadow-instance spin-up failures, and degraded
// PCIe bandwidth. Every fault decision derives from seeded xrand
// substreams (one per device per fault class), so a faulted run is as
// reproducible as a healthy one — byte-identical for a fixed seed at
// any worker count.
//
// Like obs.Sink, the injector follows the zero-overhead-when-disabled
// pattern: a nil *Injector is valid, every method is nil-receiver-safe
// and returns the "no fault" answer, and call sites guard with a
// single `if inj != nil` branch so the disabled path stays bit-for-bit
// the unfaulted workload.
package faults

import (
	"errors"
	"fmt"
	"math"

	"mudi/internal/xrand"
)

// Window is one fault episode over [Start, End) in simulation seconds.
type Window struct {
	Start float64
	End   float64
}

// ErrMeasurement marks a transient injected measurement failure whose
// retry budget was exhausted; callers fall back to predictor-only
// curves when they see it.
var ErrMeasurement = errors.New("faults: transient measurement error")

// Config declares the fault model. The zero value injects nothing;
// each field enables one fault class independently.
type Config struct {
	// Seed is extra entropy folded into the fault streams on top of the
	// simulation seed, so two fault scenarios over the same workload
	// draw independent failure schedules.
	Seed uint64

	// DeviceMTBFSec is the mean up-time between device failures
	// (exponentially distributed). 0 disables device failures.
	DeviceMTBFSec float64
	// DeviceMTTRSec is the mean repair time of a failed device; default
	// 60 s when device failures are enabled.
	DeviceMTTRSec float64

	// MeasureErrRate is the probability in [0, 1) that one
	// Measurer.TrainIterMs observation errors transiently.
	MeasureErrRate float64
	// MeasureRetries is the capped-exponential-backoff retry budget for
	// erroring measurements (see BackoffMs); default 3 when
	// MeasureErrRate > 0.
	MeasureRetries int

	// SpinUpFailRate is the probability in [0, 1) that a shadow
	// instance fails to spin up during a GPU% reconfiguration, leaving
	// the old instance serving.
	SpinUpFailRate float64

	// PCIeDegradeFactor multiplies host<->device transfer times during
	// degraded windows; values > 1 enable degradation (e.g. 4 models a
	// link dropping from x16 to x4).
	PCIeDegradeFactor float64
	// PCIeMTBFSec is the mean healthy time between degraded windows;
	// default 900 s when degradation is enabled.
	PCIeMTBFSec float64
	// PCIeMTTRSec is the mean length of one degraded window; default
	// 60 s.
	PCIeMTTRSec float64
}

// Enabled reports whether any fault class is switched on.
func (c Config) Enabled() bool {
	return c.DeviceMTBFSec > 0 || c.MeasureErrRate > 0 ||
		c.SpinUpFailRate > 0 || c.PCIeDegradeFactor > 1
}

// Validate rejects out-of-range and non-finite fields. The zero value
// is valid (no faults).
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DeviceMTBFSec", c.DeviceMTBFSec}, {"DeviceMTTRSec", c.DeviceMTTRSec},
		{"MeasureErrRate", c.MeasureErrRate}, {"SpinUpFailRate", c.SpinUpFailRate},
		{"PCIeDegradeFactor", c.PCIeDegradeFactor}, {"PCIeMTBFSec", c.PCIeMTBFSec}, {"PCIeMTTRSec", c.PCIeMTTRSec},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s %v must be finite", f.name, f.v)
		}
	}
	if c.DeviceMTBFSec < 0 {
		return fmt.Errorf("faults: DeviceMTBFSec %v must be >= 0", c.DeviceMTBFSec)
	}
	if c.DeviceMTTRSec < 0 {
		return fmt.Errorf("faults: DeviceMTTRSec %v must be >= 0", c.DeviceMTTRSec)
	}
	if c.MeasureErrRate < 0 || c.MeasureErrRate >= 1 {
		return fmt.Errorf("faults: MeasureErrRate %v must be in [0, 1)", c.MeasureErrRate)
	}
	if c.MeasureRetries < 0 {
		return fmt.Errorf("faults: MeasureRetries %d must be >= 0", c.MeasureRetries)
	}
	if c.SpinUpFailRate < 0 || c.SpinUpFailRate >= 1 {
		return fmt.Errorf("faults: SpinUpFailRate %v must be in [0, 1)", c.SpinUpFailRate)
	}
	if c.PCIeDegradeFactor != 0 && c.PCIeDegradeFactor < 1 {
		return fmt.Errorf("faults: PCIeDegradeFactor %v must be 0 (off) or >= 1", c.PCIeDegradeFactor)
	}
	if c.PCIeMTBFSec < 0 || c.PCIeMTTRSec < 0 {
		return fmt.Errorf("faults: PCIe MTBF/MTTR must be >= 0")
	}
	return nil
}

// withDefaults fills the dependent defaults of enabled fault classes.
func (c Config) withDefaults() Config {
	if c.DeviceMTBFSec > 0 && c.DeviceMTTRSec <= 0 {
		c.DeviceMTTRSec = 60
	}
	if c.MeasureErrRate > 0 && c.MeasureRetries <= 0 {
		c.MeasureRetries = 3
	}
	if c.PCIeDegradeFactor > 1 {
		if c.PCIeMTBFSec <= 0 {
			c.PCIeMTBFSec = 900
		}
		if c.PCIeMTTRSec <= 0 {
			c.PCIeMTTRSec = 60
		}
	}
	return c
}

// Injector makes all fault decisions for one simulation. It is not
// safe for concurrent use: each (single-threaded) simulation owns its
// injector, which is what keeps parallel replica fan-out
// deterministic. A nil *Injector injects nothing.
type Injector struct {
	cfg  Config
	root *xrand.Rand
	meas map[string]*xrand.Rand
	spin map[string]*xrand.Rand
	pcie []Window
}

// New validates cfg, applies dependent defaults, and returns an
// injector whose streams derive from the simulation seed (folded with
// cfg.Seed through xrand.DeriveSeed). horizonSec bounds the
// precomputed PCIe degradation schedule. A disabled config (zero
// value) returns (nil, nil) so callers keep the nil fast path.
func New(cfg Config, seed uint64, horizonSec float64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	inj := &Injector{
		cfg:  cfg,
		root: xrand.New(xrand.DeriveSeed(seed, cfg.Seed)).ForkString("faults"),
		meas: make(map[string]*xrand.Rand),
		spin: make(map[string]*xrand.Rand),
	}
	if cfg.PCIeDegradeFactor > 1 {
		inj.pcie = windows(inj.root.ForkString("pcie"), cfg.PCIeMTBFSec, cfg.PCIeMTTRSec, horizonSec)
	}
	return inj, nil
}

// windows draws alternating up/down episodes until the horizon.
func windows(rng *xrand.Rand, mtbf, mttr, horizon float64) []Window {
	var out []Window
	t := rng.Exp(1 / mtbf)
	for t < horizon {
		end := t + rng.Exp(1/mttr)
		out = append(out, Window{Start: t, End: end})
		t = end + rng.Exp(1/mtbf)
	}
	return out
}

// Retries returns the measurement retry budget.
func (inj *Injector) Retries() int {
	if inj == nil {
		return 0
	}
	return inj.cfg.MeasureRetries
}

// The measurement retry backoff: backoffBaseMs before the first
// retry, doubling per attempt up to backoffCapMs.
const (
	backoffBaseMs = 50
	backoffCapMs  = 1000
)

// BackoffMs returns the capped exponential backoff before retry
// `attempt` (1-based).
func (inj *Injector) BackoffMs(attempt int) float64 {
	if inj == nil {
		return 0
	}
	b := float64(backoffBaseMs)
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= backoffCapMs {
			return backoffCapMs
		}
	}
	return b
}

// DeviceWindows draws the failure/repair schedule of one device up to
// the horizon. The schedule is a pure function of (seed, device id):
// calling it twice yields the same windows.
func (inj *Injector) DeviceWindows(devID string, horizonSec float64) []Window {
	if inj == nil || inj.cfg.DeviceMTBFSec <= 0 {
		return nil
	}
	return windows(inj.root.ForkString("devfail:"+devID), inj.cfg.DeviceMTBFSec, inj.cfg.DeviceMTTRSec, horizonSec)
}

// MeasureFails reports whether the next TrainIterMs observation on the
// device errors transiently. Each call advances the device's
// measurement fault stream.
func (inj *Injector) MeasureFails(devID string) bool {
	if inj == nil || inj.cfg.MeasureErrRate <= 0 {
		return false
	}
	rng, ok := inj.meas[devID]
	if !ok {
		rng = inj.root.ForkString("meas:" + devID)
		inj.meas[devID] = rng
	}
	return rng.Float64() < inj.cfg.MeasureErrRate
}

// SpinUpFails reports whether a shadow-instance spin-up on the device
// fails, leaving the old instance serving. Each call advances the
// device's spin-up fault stream.
func (inj *Injector) SpinUpFails(devID string) bool {
	if inj == nil || inj.cfg.SpinUpFailRate <= 0 {
		return false
	}
	rng, ok := inj.spin[devID]
	if !ok {
		rng = inj.root.ForkString("spin:" + devID)
		inj.spin[devID] = rng
	}
	return rng.Float64() < inj.cfg.SpinUpFailRate
}

// PCIeScale returns the transfer-time multiplier at `now`: the degrade
// factor inside a degraded window, 1 otherwise.
func (inj *Injector) PCIeScale(now float64) float64 {
	if inj == nil || len(inj.pcie) == 0 {
		return 1
	}
	// The schedule is short (a handful of windows per run); linear scan
	// keeps it simple and allocation-free.
	for _, w := range inj.pcie {
		if now < w.Start {
			return 1
		}
		if now < w.End {
			return inj.cfg.PCIeDegradeFactor
		}
	}
	return 1
}
