package mudi

import (
	"io"

	"mudi/internal/obs"
	"mudi/internal/span"
	"mudi/internal/timeline"
)

// Causal tracing surface. A run with SimOptions.Trace set renders its
// control-plane records as spans in simulated time — parent/child
// linked, annotated with the device, the resident training-task
// signature, the partition change, and the batch size — and classifies
// every SLO violation's dominant cause. The spans are the second view
// of the record stream the event log renders. Like the event stream,
// tracing is passive: Result.Summary() is bit-identical with and
// without it.
type (
	// Span is one causal simulated-time span. Start/End are simulation
	// seconds; Parent links children (bo_iter under retune,
	// shadow_spinup/shadow_swap under rescale).
	Span = span.Span
	// SpanID identifies a span within one run (0 = none).
	SpanID = span.ID
	// SpanKind discriminates spans; wire names are snake_case
	// ("retune", "bo_iter", "rescale", "shadow_spinup", "shadow_swap",
	// "migrate", "mem_swap", "outage").
	SpanKind = span.Kind
	// SLOReport is the per-service SLO-violation attribution roll-up:
	// violation counts, violated-minutes, a cause breakdown, and the
	// top offending co-located task.
	SLOReport = span.SLOReport
	// ServiceSLO is one service's attribution rollup.
	ServiceSLO = span.ServiceSLO
	// AttributedViolation is one classified SLO violation.
	AttributedViolation = span.AttributedViolation
	// ViolationCause enumerates the attribution classes; wire names are
	// "device_fault", "rescale_in_progress", "burst_overload",
	// "interference", "queueing", "shed".
	ViolationCause = span.Cause
	// ClassSLO is one SLO class's attribution roll-up (violations,
	// violated-minutes, cause breakdown, shed requests) — present in
	// SLOReport.Classes only for class-aware runs.
	ClassSLO = span.ClassSLO
)

// The span taxonomy.
const (
	SpanRetune       = span.KindRetune
	SpanBOIter       = span.KindBOIter
	SpanRescale      = span.KindRescale
	SpanShadowSpinup = span.KindShadowSpinup
	SpanShadowSwap   = span.KindShadowSwap
	SpanMigrate      = span.KindMigrate
	SpanMemSwap      = span.KindMemSwap
	SpanOutage       = span.KindOutage
)

// The attribution classes, in priority order: an overlapping device
// outage beats an in-flight rescale beats admission-control shedding
// beats a QPS burst beats training interference; queueing is the
// fallback.
const (
	CauseDeviceFault   = span.CauseDeviceFault
	CauseRescale       = span.CauseRescale
	CauseShed          = span.CauseShed
	CauseBurstOverload = span.CauseBurstOverload
	CauseInterference  = span.CauseInterference
	CauseQueueing      = span.CauseQueueing
)

// WriteChromeTrace writes the spans as Chrome trace-event JSON —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Timestamps are simulated microseconds; tracks are device/lane pairs.
// This is the format behind `mudisim -trace out.json`.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return span.WriteChromeTrace(w, spans)
}

// Telemetry bundles live observability instruments — a metrics sink, a
// control-plane record log with its violation attributor, and a
// timeline store — that can be served over HTTP while a simulation
// runs. Pass it via SimOptions.Telemetry (the run then records into
// these instruments instead of private ones) and mount the
// telemetryhttp subpackage's handler on a server:
//
//	tel := mudi.NewTelemetry()
//	go http.ListenAndServe(":8080", telemetryhttp.Handler(tel))
//	res, err := sys.Simulate(mudi.SimOptions{Telemetry: tel})
//
// The HTTP surface lives in the separate telemetryhttp package so that
// importing mudi alone never links net/http (whose transitive init
// starts runtime background work that would show up in this package's
// allocation-budget benchmarks). A Telemetry is good for one run at a
// time.
type Telemetry struct {
	sink *obs.Sink
	log  *span.Log
	tl   *timeline.Store
}

// NewTelemetry returns a Telemetry with default-capacity instruments,
// including a timeline store (the /timeline and /watch endpoints read
// it while the attached run writes).
func NewTelemetry() *Telemetry {
	return &Telemetry{
		sink: obs.NewSink(),
		log:  span.NewRunLog(true, true, nil),
		tl:   timeline.New(timeline.Defaults()),
	}
}

// Instruments exposes the underlying metrics sink and record log (which
// carries the attributor) — the bridge the telemetryhttp subpackage
// (and the CLIs) build the live HTTP surface from. The returned values
// are internal types: outside this module they are opaque handles to
// pass along, not something to construct or name.
func (t *Telemetry) Instruments() (*obs.Sink, *span.Log) {
	return t.sink, t.log
}

// TimelineStore exposes the underlying timeline store — same opaque-
// handle contract as Instruments.
func (t *Telemetry) TimelineStore() *timeline.Store { return t.tl }
