package mudi

import (
	"fmt"
	"math"

	"mudi/internal/model"
)

// SLOClass is a service's (or cohort's) criticality tier. Classes drive
// priority-aware placement, per-class interference budgets, and burst
// admission control: critical load is protected first, sheddable and
// background load may be dropped under overload, batch work defers but
// never drops. The zero value (SLOUnset) selects the classless legacy
// behavior — a run where no service declares a class is byte-identical
// to one on a build without classes.
type SLOClass = model.SLOClass

// The SLO classes, most critical first.
const (
	// SLOUnset is the zero value: classless legacy behavior.
	SLOUnset SLOClass = model.ClassUnset
	// SLOCritical load must meet its SLO even under bursts; it is
	// never shed and preempts batch capacity.
	SLOCritical SLOClass = model.ClassCritical
	// SLOStandard is ordinary production load: protected, never shed.
	SLOStandard SLOClass = model.ClassStandard
	// SLOSheddable load tolerates drops: admission control sheds its
	// burst excess to protect the critical tiers.
	SLOSheddable SLOClass = model.ClassSheddable
	// SLOBatch is throughput-oriented work: it defers behind
	// latency-critical load but every request is eventually served.
	SLOBatch SLOClass = model.ClassBatch
	// SLOBackground is best-effort load: first to be shed, last to be
	// placed.
	SLOBackground SLOClass = model.ClassBackground
)

// SLOClasses lists the five classes in criticality order (SLOUnset is
// the absence of a class, not a class, and is excluded).
func SLOClasses() []SLOClass { return model.SLOClasses() }

// ParseSLOClass resolves a class wire name ("critical", "standard",
// "sheddable", "batch", "background"). The empty string is SLOUnset.
func ParseSLOClass(s string) (SLOClass, error) { return model.ParseSLOClass(s) }

// BaselineID identifies one of the paper's comparison systems. The
// typed constants below replace the stringly-typed System.Baseline
// argument; the string forms remain valid through the deprecated
// shim.
type BaselineID string

// The comparison systems of §7.
const (
	// BaselineGSLICE is GSLICE: inference-only spatial sharing.
	BaselineGSLICE BaselineID = "gslice"
	// BaselineGpulets is gpulets: profile-table partitioning.
	BaselineGpulets BaselineID = "gpulets"
	// BaselineMuxFlow is MuxFlow: SM-threshold co-location.
	BaselineMuxFlow BaselineID = "muxflow"
	// BaselineRandom places training tasks uniformly at random.
	BaselineRandom BaselineID = "random"
	// BaselineOptimal is the oracle-informed upper bound (Fig. 13).
	BaselineOptimal BaselineID = "optimal"
)

// Baselines lists the known baseline IDs in presentation order.
func Baselines() []BaselineID {
	return []BaselineID{
		BaselineGSLICE, BaselineGpulets, BaselineMuxFlow,
		BaselineRandom, BaselineOptimal,
	}
}

// QueuePolicyID selects the training-queue scheduling order (§6: Mudi
// "seamlessly integrates with various scheduling policies").
type QueuePolicyID string

// The supported queue policies.
const (
	// QueueFCFS schedules in submission order (the paper's default).
	QueueFCFS QueuePolicyID = "fcfs"
	// QueueSJF schedules the shortest estimated job first.
	QueueSJF QueuePolicyID = "sjf"
	// QueueFair schedules the least-served user first (max-min over
	// GPU-seconds).
	QueueFair QueuePolicyID = "fair"
	// QueuePriority schedules the highest priority first.
	QueuePriority QueuePolicyID = "priority"
)

// QueuePolicies lists the known queue policy IDs.
func QueuePolicies() []QueuePolicyID {
	return []QueuePolicyID{QueueFCFS, QueueSJF, QueueFair, QueuePriority}
}

// OptionError reports one invalid configuration field. Errors from
// SimOptions.Validate (and from Simulate, which validates first) unwrap
// to this type:
//
//	var oe *mudi.OptionError
//	if errors.As(err, &oe) { fmt.Println(oe.Field, oe.Reason) }
type OptionError struct {
	Field  string // the SimOptions field, e.g. "MIGSlices"
	Value  any    // the rejected value
	Reason string // why it was rejected
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("mudi: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// resolveID folds a typed ID field and its deprecated stringly-typed
// twin into the effective value — the one conflict/unknown error shape
// behind every such pair (Queue/QueuePolicy, BaselinePolicy/Baseline).
// The deprecated twin may restate the typed value but not contradict
// it; the result must be one of the known IDs, with "" selecting the
// caller's default.
func resolveID(field, depField, typed, deprecated string, known []string) (string, *OptionError) {
	v := typed
	if deprecated != "" {
		if v != "" && v != deprecated {
			return "", &OptionError{
				Field: field, Value: typed,
				Reason: fmt.Sprintf("conflicts with deprecated %s=%q", depField, deprecated),
			}
		}
		v = deprecated
	}
	if v == "" {
		return "", nil
	}
	for _, k := range known {
		if v == k {
			return v, nil
		}
	}
	return "", &OptionError{
		Field: field, Value: v,
		Reason: fmt.Sprintf("unknown %s (known: %v)", field, known),
	}
}

// queueID resolves the effective queue policy from the typed Queue
// field and the deprecated QueuePolicy string, rejecting conflicting
// settings.
func (o SimOptions) queueID() (QueuePolicyID, *OptionError) {
	known := make([]string, 0, len(QueuePolicies()))
	for _, q := range QueuePolicies() {
		known = append(known, string(q))
	}
	id, oe := resolveID("Queue", "QueuePolicy", string(o.Queue), o.QueuePolicy, known)
	if oe != nil {
		return "", oe
	}
	return QueuePolicyID(id), nil
}

// Validate checks every SimOptions field and returns the first
// violation as an *OptionError, or nil.
//
// Zero values are not violations — they select documented defaults and
// Validate accepts them: Policy (system's Mudi), Devices (12),
// Tasks (24), MeanGapSec (10 s), IterScale (0.002), LoadFactor (1.0),
// Queue (QueueFCFS), TraceDeviceIdx (no trace), MIGSlices (no MIG
// splitting; 1 is equivalently off), Shards (auto lane count; negative
// values also mean auto), AdmitFactor (1.5× burst headroom).
func (o SimOptions) Validate() error {
	if o.Devices < 0 {
		return &OptionError{Field: "Devices", Value: o.Devices, Reason: "must be >= 0 (0 selects the default of 12)"}
	}
	if o.Tasks < 0 {
		return &OptionError{Field: "Tasks", Value: o.Tasks, Reason: "must be >= 0 (0 selects the default of 24)"}
	}
	if o.MeanGapSec < 0 {
		return &OptionError{Field: "MeanGapSec", Value: o.MeanGapSec, Reason: "must be >= 0 (0 selects the default of 10 s)"}
	}
	if o.IterScale < 0 {
		return &OptionError{Field: "IterScale", Value: o.IterScale, Reason: "must be >= 0 (0 selects the default of 0.002)"}
	}
	if o.LoadFactor < 0 {
		return &OptionError{Field: "LoadFactor", Value: o.LoadFactor, Reason: "must be >= 0 (0 selects the default of 1.0)"}
	}
	if o.TraceDeviceIdx < 0 {
		return &OptionError{Field: "TraceDeviceIdx", Value: o.TraceDeviceIdx, Reason: "must be >= 0 (0 disables tracing; indexes are 1-based)"}
	}
	if o.MIGSlices < 0 || o.MIGSlices > 7 {
		return &OptionError{Field: "MIGSlices", Value: o.MIGSlices, Reason: "must be in [0, 7] (A100 MIG supports at most 7 instances; 0 or 1 disables splitting)"}
	}
	if math.IsNaN(o.AdmitFactor) || math.IsInf(o.AdmitFactor, 0) || o.AdmitFactor < 0 {
		return &OptionError{Field: "AdmitFactor", Value: o.AdmitFactor, Reason: "must be finite and >= 0 (0 selects the default burst headroom of 1.5)"}
	}
	for i, b := range o.Bursts {
		if b.Start < 0 || b.End < b.Start {
			return &OptionError{
				Field: "Bursts", Value: i,
				Reason: "burst must have Start >= 0 and End >= Start",
			}
		}
		if b.Factor <= 0 || math.IsNaN(b.Factor) || math.IsInf(b.Factor, 0) {
			// A zero/negative factor silently zeroes the service's QPS
			// mid-run (and NaN poisons every downstream metric); reject it
			// here instead of letting the generator produce garbage.
			return &OptionError{
				Field: "Bursts", Value: i,
				Reason: fmt.Sprintf("burst Factor must be finite and > 0, got %v", b.Factor),
			}
		}
	}
	if o.Workload != nil {
		if err := o.Workload.Validate(); err != nil {
			return &OptionError{Field: "Workload", Value: "(trace)", Reason: err.Error()}
		}
		// The trace already embeds the synthesis knobs' effect — a knob
		// set alongside it would be silently ignored, so reject instead.
		conflicts := []struct {
			name string
			set  bool
		}{
			{"Arrivals", o.Arrivals != nil},
			{"Tasks", o.Tasks != 0},
			{"MeanGapSec", o.MeanGapSec != 0},
			{"IterScale", o.IterScale != 0},
			{"LoadFactor", o.LoadFactor != 0 && o.LoadFactor != 1},
			{"Bursts", len(o.Bursts) != 0},
		}
		for _, c := range conflicts {
			if c.set {
				return &OptionError{
					Field: "Workload", Value: "(trace)",
					Reason: fmt.Sprintf("conflicts with %s: a replayed trace already embeds the synthesized workload", c.name),
				}
			}
		}
		h := o.Workload.Header
		if o.Devices != 0 && o.Devices != h.Devices {
			return &OptionError{
				Field: "Devices", Value: o.Devices,
				Reason: fmt.Sprintf("replayed trace is for %d devices (leave Devices 0 to take the header's value)", h.Devices),
			}
		}
		hm := h.MIGSlices
		if hm <= 0 {
			hm = 1
		}
		om := o.MIGSlices
		if om <= 0 {
			om = 1
		}
		if o.MIGSlices != 0 && om != hm {
			return &OptionError{
				Field: "MIGSlices", Value: o.MIGSlices,
				Reason: fmt.Sprintf("replayed trace is for %d MIG slices (leave MIGSlices 0 to take the header's value)", hm),
			}
		}
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return &OptionError{Field: "Faults", Value: *o.Faults, Reason: err.Error()}
		}
	}
	for i, c := range o.ClassMix {
		if !c.Valid() {
			return &OptionError{
				Field: "ClassMix", Value: i,
				Reason: fmt.Sprintf("unknown SLO class %d (known: %v)", uint8(c), SLOClasses()),
			}
		}
	}
	for name, c := range o.ServiceClasses {
		if !c.Valid() {
			return &OptionError{
				Field: "ServiceClasses", Value: name,
				Reason: fmt.Sprintf("unknown SLO class %d (known: %v)", uint8(c), SLOClasses()),
			}
		}
	}
	if _, oe := o.queueID(); oe != nil {
		return oe
	}
	return nil
}
