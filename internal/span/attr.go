package span

import (
	"encoding/json"
	"fmt"
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

// Sample is the per-violation context captured at slo_violation time,
// before causes can be decided (rescale/outage spans may still be
// open). Attribution happens later in Report.
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

// SLOReport is the attribution pass's output, carried on
// cluster.Result and served live at /slo.
type SLOReport struct {
	WindowSec  float64               `json:"window_sec"`
	Total      int                   `json:"total_violations"`
	Services   []ServiceSLO          `json:"services"`
	Classes    []ClassSLO            `json:"classes,omitempty"`
	Violations []AttributedViolation `json:"violations,omitempty"`
}

// Attributor collects violation Samples during a run and classifies
// them against the span stream on demand. A nil *Attributor disables
// collection; methods are nil-receiver-safe and concurrency-safe so a
// live /slo endpoint can Report mid-run.
type Attributor struct {
	mu      sync.Mutex
	cap     int
	samples []Sample
	dropped uint64
	sheds   map[string]float64 // class wire name → requests shed
}

// DefSampleCap bounds the default sample store.
const DefSampleCap = 1 << 15

// NewAttributor returns an attributor bounded at capacity
// (DefSampleCap if ≤ 0).
func NewAttributor(capacity int) *Attributor {
	if capacity <= 0 {
		capacity = DefSampleCap
	}
	return &Attributor{cap: capacity}
}

// Observe records one violation sample (or counts it as dropped at
// capacity).
func (a *Attributor) Observe(s Sample) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if len(a.samples) >= a.cap {
		a.dropped++
	} else {
		a.samples = append(a.samples, s)
	}
	a.mu.Unlock()
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
	if a.sheds == nil {
		a.sheds = make(map[string]float64)
	}
	a.sheds[class] += requests
	a.mu.Unlock()
}

// Len returns the number of collected samples.
func (a *Attributor) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.samples)
}

// classify assigns the single dominant cause for one sample given the
// device's rescale and outage intervals.
func classify(s Sample, outages, rescales []Span) Cause {
	for _, o := range outages {
		end := o.End
		if end < o.Start {
			end = s.Time // still open: covers everything up to now
		}
		if s.Time >= o.Start && s.Time <= end+FaultGraceSec {
			return CauseDeviceFault
		}
	}
	for _, r := range rescales {
		end := r.End
		if end < r.Start {
			end = s.Time
		}
		if s.Time >= r.Start && s.Time <= end {
			return CauseRescale
		}
	}
	if s.ShedQPS > 0 {
		return CauseShed
	}
	if s.BaseQPS > 0 && s.QPS > BurstFactor*s.BaseQPS {
		return CauseBurstOverload
	}
	if len(s.Residents) > 0 {
		return CauseInterference
	}
	return CauseQueueing
}

// Report runs the attribution pass: each collected sample is matched
// against the device's outage and rescale spans and classified with
// exactly one Cause, then rolled up per service. windowSec is the
// control-window length, used to convert violation counts into
// violated-minutes.
func (a *Attributor) Report(spans []Span, windowSec float64) *SLOReport {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	samples := append([]Sample(nil), a.samples...)
	sheds := make(map[string]float64, len(a.sheds))
	for cls, req := range a.sheds {
		sheds[cls] = req
	}
	a.mu.Unlock()
	if windowSec <= 0 {
		windowSec = 1
	}

	outages := make(map[string][]Span)
	rescales := make(map[string][]Span)
	for _, s := range spans {
		switch s.Kind {
		case KindOutage:
			outages[s.Device] = append(outages[s.Device], s)
		case KindRescale:
			rescales[s.Device] = append(rescales[s.Device], s)
		}
	}

	rep := &SLOReport{WindowSec: windowSec, Total: len(samples)}
	perSvc := make(map[string]*ServiceSLO)
	perClass := make(map[string]*ClassSLO)
	offenders := make(map[string]map[string]int) // service → task → hits
	for _, s := range samples {
		cause := classify(s, outages[s.Device], rescales[s.Device])
		rep.Violations = append(rep.Violations, AttributedViolation{Sample: s, Cause: cause})
		svc := perSvc[s.Service]
		if svc == nil {
			svc = &ServiceSLO{Service: s.Service, Causes: make(map[string]int)}
			perSvc[s.Service] = svc
			offenders[s.Service] = make(map[string]int)
		}
		svc.Violations++
		svc.Causes[cause.String()]++
		for _, task := range s.Residents {
			offenders[s.Service][task]++
		}
		if s.Class != "" {
			cls := perClass[s.Class]
			if cls == nil {
				cls = &ClassSLO{Class: s.Class, Causes: make(map[string]int)}
				perClass[s.Class] = cls
			}
			cls.Violations++
			cls.Causes[cause.String()]++
		}
	}
	// Classes that shed without ever violating still appear in the
	// per-class roll-up: the shed volume is the point.
	for cls, req := range sheds {
		c := perClass[cls]
		if c == nil {
			c = &ClassSLO{Class: cls}
			perClass[cls] = c
		}
		c.ShedRequests = req
	}
	names := make([]string, 0, len(perSvc))
	for name := range perSvc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svc := perSvc[name]
		svc.ViolatedMinutes = float64(svc.Violations) * windowSec / 60
		// Top offender: most frequent co-located task across this
		// service's violating windows; ties break lexicographically.
		for task, hits := range offenders[name] {
			if hits > svc.TopOffenderHits ||
				(hits == svc.TopOffenderHits && svc.TopOffender != "" && task < svc.TopOffender) {
				svc.TopOffender, svc.TopOffenderHits = task, hits
			}
		}
		rep.Services = append(rep.Services, *svc)
	}
	classNames := make([]string, 0, len(perClass))
	for name := range perClass {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		cls := perClass[name]
		cls.ViolatedMinutes = float64(cls.Violations) * windowSec / 60
		rep.Classes = append(rep.Classes, *cls)
	}
	return rep
}
