package span

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
)

// Cause classifies why an SLO window was violated. Classification is
// total and prioritised — exactly one cause per violation — ordered
// from the most structural explanation to the catch-all:
// device_fault > rescale_in_progress > shed > burst_overload >
// interference > queueing.
type Cause uint8

const (
	// CauseDeviceFault: the device had a fault-injected outage window
	// overlapping (or just preceding) the violated window — the
	// failover/recovery transient explains the tail.
	CauseDeviceFault Cause = iota
	// CauseRescale: a shadow-instance reconfiguration was in flight on
	// the device during the window.
	CauseRescale
	// CauseBurstOverload: arrival QPS was far above the service's
	// burst-free baseline.
	CauseBurstOverload
	// CauseInterference: a resident training task was co-located on
	// the device — the Eq. 1 interference slopes explain the tail.
	CauseInterference
	// CauseQueueing: none of the above — the latency budget was simply
	// exceeded by queueing/batching delay at the configured capacity.
	CauseQueueing
	// CauseShed: admission control was shedding this service's overload
	// during the window, and the admitted load still violated — the
	// violation belongs to the shed regime, not to raw burst overload.
	// (Appended after CauseQueueing to keep existing wire values
	// stable; classification priority slots it between rescale and
	// burst.)
	CauseShed

	numCauses // keep last
)

var causeNames = [numCauses]string{
	CauseDeviceFault:   "device_fault",
	CauseRescale:       "rescale_in_progress",
	CauseBurstOverload: "burst_overload",
	CauseInterference:  "interference",
	CauseQueueing:      "queueing",
	CauseShed:          "shed",
}

// String returns the wire name of the cause.
func (c Cause) String() string {
	if c < numCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// MarshalJSON encodes the cause as its wire name.
func (c Cause) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes a wire name back into the cause.
func (c *Cause) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range causeNames {
		if name == s {
			*c = Cause(i)
			return nil
		}
	}
	return fmt.Errorf("span: unknown cause %q", s)
}

// FaultGraceSec extends a device outage window forward when matching
// violations: a device serves no windows while down, so the fault
// shows up as a tail transient in the windows right after recovery
// (cold instance, requeued work).
const FaultGraceSec = 30.0

// WindowSec is the control-window length in simulated seconds: the
// cadence of every device's Monitor window in the simulator and the
// window the live telemetry's SLO report accounts violations in.
const WindowSec = 1.0

// BurstFactor is the overload threshold: arrival QPS above
// BurstFactor × the burst-free baseline classifies as burst_overload.
const BurstFactor = 1.5

// Sample is the per-violation context captured at slo_violation time.
// Its cause is decided once no later control action at the same
// simulated time can still change it (see Attributor).
type Sample struct {
	Time      float64  `json:"t"`
	Device    string   `json:"device"`
	Service   string   `json:"service"`
	LatencyMs float64  `json:"latency_ms"`
	BudgetMs  float64  `json:"budget_ms"`
	QPS       float64  `json:"qps"`
	BaseQPS   float64  `json:"base_qps"` // burst-free baseline
	Residents []string `json:"residents,omitempty"`
	// Class is the service's SLO class wire name ("" when unclassed —
	// omitted so classless reports stay byte-identical).
	Class string `json:"class,omitempty"`
	// ShedQPS is the arrival rate admission control was dropping during
	// the window (0 when not shedding). QPS above holds the admitted
	// rate, so QPS+ShedQPS is the offered rate.
	ShedQPS float64 `json:"shed_qps,omitempty"`
}

// AttributedViolation is one classified violation in the report.
type AttributedViolation struct {
	Sample
	Cause Cause `json:"cause"`
}

// ServiceSLO is the per-service roll-up: violation counts,
// violated-minutes, the cause breakdown, and the top offending
// co-located training task.
type ServiceSLO struct {
	Service         string         `json:"service"`
	Violations      int            `json:"violations"`
	ViolatedMinutes float64        `json:"violated_minutes"`
	Causes          map[string]int `json:"causes"`
	TopOffender     string         `json:"top_offender,omitempty"`
	TopOffenderHits int            `json:"top_offender_hits,omitempty"`
}

// ClassSLO is the per-SLO-class roll-up: violation counts and causes
// aggregated over every service in the class, plus the requests
// admission control shed from the class. Only populated in class-aware
// runs — classless reports carry no Classes entries.
type ClassSLO struct {
	Class           string         `json:"class"`
	Violations      int            `json:"violations"`
	ViolatedMinutes float64        `json:"violated_minutes"`
	Causes          map[string]int `json:"causes,omitempty"`
	ShedRequests    float64        `json:"shed_requests,omitempty"`
}

// SLOReport is the attribution's output, carried on cluster.Result and
// served live at /slo. Total and the roll-ups count every violation;
// Violations lists the first DefSampleCap of them.
type SLOReport struct {
	WindowSec  float64               `json:"window_sec"`
	Total      int                   `json:"total_violations"`
	Services   []ServiceSLO          `json:"services"`
	Classes    []ClassSLO            `json:"classes,omitempty"`
	Violations []AttributedViolation `json:"violations,omitempty"`
}

// Attributor classifies every SLO violation from per-device state —
// the device's current or last outage and the latest end among its
// rescales — that the Log keeps current from the control records it
// feeds in. A violation's cause is final once the device's clock moves
// past the sample's time: a rescale or outage that starts later at the
// same simulated time (the barrier's control phase runs after the
// window it reacts to) still counts, so each device holds its latest
// samples back until then. The per-service and per-class roll-ups
// count every violation; only the per-violation list is capped. A nil
// *Attributor collects nothing; methods are concurrency-safe so a live
// /slo endpoint can Report mid-run.
type Attributor struct {
	mu      sync.Mutex
	cap     int
	list    []AttributedViolation // the first cap violations
	dropped int
	devices map[string]*deviceAttr
	roll    rollup
}

// DefSampleCap caps the per-violation list.
const DefSampleCap = 1 << 15

// NewAttributor returns an attributor whose per-violation list holds
// up to capacity entries (DefSampleCap if ≤ 0).
func NewAttributor(capacity int) *Attributor {
	if capacity <= 0 {
		capacity = DefSampleCap
	}
	return &Attributor{cap: capacity, devices: make(map[string]*deviceAttr), roll: newRollup()}
}

// deviceAttr is one device's attribution state: when its last outage
// ended (+Inf while it lasts, -Inf before any), the latest end among
// its rescales (-Inf before any), and its samples not yet settled.
type deviceAttr struct {
	outageEnd, rescaleEnd float64
	pending               []pendingSample
}

// pendingSample is a violation whose cause is not final yet; idx is its
// entry in the list (-1 past the cap).
type pendingSample struct {
	Sample
	idx int
}

func (a *Attributor) device(id string) *deviceAttr {
	d := a.devices[id]
	if d == nil {
		d = &deviceAttr{outageEnd: math.Inf(-1), rescaleEnd: math.Inf(-1)}
		a.devices[id] = d
	}
	return d
}

// classify assigns the single dominant cause for one sample given its
// device's outage and rescale state.
func (d *deviceAttr) classify(s *Sample) Cause {
	switch {
	case s.Time <= d.outageEnd+FaultGraceSec:
		return CauseDeviceFault
	case s.Time <= d.rescaleEnd:
		return CauseRescale
	case s.ShedQPS > 0:
		return CauseShed
	case s.BaseQPS > 0 && s.QPS > BurstFactor*s.BaseQPS:
		return CauseBurstOverload
	case len(s.Residents) > 0:
		return CauseInterference
	}
	return CauseQueueing
}

// classifyPending classifies the device's pending samples against its
// current state into list and roll.
func (d *deviceAttr) classifyPending(list []AttributedViolation, roll rollup) {
	for i := range d.pending {
		p := &d.pending[i]
		cause := d.classify(&p.Sample)
		if p.idx >= 0 {
			list[p.idx].Cause = cause
		}
		roll.add(&p.Sample, cause)
	}
}

// settle finalizes the device's pending samples older than now.
func (a *Attributor) settle(d *deviceAttr, now float64) {
	if len(d.pending) > 0 && d.pending[0].Time < now {
		d.classifyPending(a.list, a.roll)
		d.pending = d.pending[:0]
	}
}

// Observe records one violation. Per device, samples and control
// records must arrive in non-decreasing simulated time.
func (a *Attributor) Observe(s Sample) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.device(s.Device)
	a.settle(d, s.Time)
	p := pendingSample{Sample: s, idx: -1}
	if len(a.list) < a.cap {
		p.idx = len(a.list)
		a.list = append(a.list, AttributedViolation{Sample: s})
	} else {
		a.dropped++
	}
	d.pending = append(d.pending, p)
}

// control applies an outage, recovery or rescale record to its
// device's state, first settling the samples it can no longer affect.
func (a *Attributor) control(r *Record) {
	if a == nil || (r.Act != ActOutage && r.Act != ActRecovered && r.Act != ActRescale && r.Act != ActSpinUpFailed) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.device(r.Device)
	a.settle(d, r.Time)
	switch r.Act {
	case ActOutage:
		d.outageEnd = math.Inf(1)
	case ActRecovered:
		d.outageEnd = r.Time
	default:
		d.rescaleEnd = max(d.rescaleEnd, r.End)
	}
}

// ObserveShed accumulates requests dropped by admission control
// against an SLO class. Shedding is accounted separately from Observe
// because a shed window need not be a violated window — shedding is
// precisely what keeps it from violating.
func (a *Attributor) ObserveShed(class string, requests float64) {
	if a == nil || class == "" || requests <= 0 {
		return
	}
	a.mu.Lock()
	a.roll.class(class).ShedRequests += requests
	a.mu.Unlock()
}

// Dropped returns how many violations the per-violation list's cap
// left out (the roll-ups still count them).
func (a *Attributor) Dropped() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Report snapshots the attribution: every settled violation plus the
// pending ones, classified against their devices' current state,
// rolled up per service and per class. windowSec is the control-window
// length, used to convert violation counts into violated-minutes.
func (a *Attributor) Report(windowSec float64) *SLOReport {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if windowSec <= 0 {
		windowSec = 1
	}
	rep := &SLOReport{WindowSec: windowSec, Total: len(a.list) + a.dropped}
	if len(a.list) > 0 {
		rep.Violations = append([]AttributedViolation(nil), a.list...)
	}
	roll := a.roll.clone()
	for _, d := range a.devices {
		d.classifyPending(rep.Violations, roll)
	}
	for _, name := range sortedKeys(roll.services) {
		svc := roll.services[name]
		svc.ViolatedMinutes = float64(svc.Violations) * windowSec / 60
		// Top offender: most frequent co-located task across this
		// service's violating windows; ties break lexicographically.
		for task, hits := range roll.offenders[name] {
			if hits > svc.TopOffenderHits ||
				(hits == svc.TopOffenderHits && svc.TopOffender != "" && task < svc.TopOffender) {
				svc.TopOffender, svc.TopOffenderHits = task, hits
			}
		}
		rep.Services = append(rep.Services, *svc)
	}
	for _, name := range sortedKeys(roll.classes) {
		cls := roll.classes[name]
		cls.ViolatedMinutes = float64(cls.Violations) * windowSec / 60
		rep.Classes = append(rep.Classes, *cls)
	}
	return rep
}

// rollup is the running per-service and per-class violation counts.
type rollup struct {
	services  map[string]*ServiceSLO
	offenders map[string]map[string]int // service → co-located task → violating windows
	classes   map[string]*ClassSLO
}

func newRollup() rollup {
	return rollup{make(map[string]*ServiceSLO), make(map[string]map[string]int), make(map[string]*ClassSLO)}
}

// add counts one classified violation.
func (r rollup) add(s *Sample, cause Cause) {
	svc := r.services[s.Service]
	if svc == nil {
		svc = &ServiceSLO{Service: s.Service, Causes: make(map[string]int)}
		r.services[s.Service] = svc
		r.offenders[s.Service] = make(map[string]int)
	}
	svc.Violations++
	svc.Causes[cause.String()]++
	for _, task := range s.Residents {
		r.offenders[s.Service][task]++
	}
	if s.Class != "" {
		cls := r.class(s.Class)
		if cls.Causes == nil {
			cls.Causes = make(map[string]int)
		}
		cls.Violations++
		cls.Causes[cause.String()]++
	}
}

// class returns the named class's counts, creating them on first use
// (a class that only sheds carries no Causes).
func (r rollup) class(name string) *ClassSLO {
	c := r.classes[name]
	if c == nil {
		c = &ClassSLO{Class: name}
		r.classes[name] = c
	}
	return c
}

// clone deep-copies the counts.
func (r rollup) clone() rollup {
	c := newRollup()
	for name, svc := range r.services {
		cp := *svc
		cp.Causes = maps.Clone(svc.Causes)
		c.services[name] = &cp
		c.offenders[name] = maps.Clone(r.offenders[name])
	}
	for name, cls := range r.classes {
		cp := *cls
		cp.Causes = maps.Clone(cls.Causes)
		c.classes[name] = &cp
	}
	return c
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
