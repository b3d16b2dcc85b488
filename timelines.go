package mudi

import (
	"io"

	"mudi/internal/atomicio"
	"mudi/internal/timeline"
)

// Timeline telemetry surface. A run with SimOptions.Timelines set (or a
// Telemetry attached) records multi-resolution time-series — raw
// per-window samples cascading into tiered min/max/mean/sum/count
// buckets, so arbitrarily long runs stay bounded — across a typed
// taxonomy: per-service QPS/admitted/shed/P99/violation-rate and
// batch/GPU-share/swapped-MB/paused-devices, per-SLO-class roll-ups,
// fleet utilization/outage/queue/memory-pressure signals, and the
// engine's own wall-clock self-profile (per-phase durations, barrier
// mail volume, lane imbalance, heap/GC). Recording is passive:
// Result.Summary() is bit-identical with and without it, and the
// non-profile series are themselves byte-identical across lane and
// worker counts (TimelineFingerprint pins this).
type (
	// Timeline is one exported series: its kind, scope, and resolution
	// levels from raw (stride 1) to coarsest.
	Timeline = timeline.Timeline
	// TimelineLevel is one resolution level of a series.
	TimelineLevel = timeline.Level
	// TimelineBucket is one downsampled bucket (min/max/sum/count over
	// a time span).
	TimelineBucket = timeline.Bucket
	// TimelineKind is the typed series taxonomy; wire names are
	// snake_case ("service_qps", "class_shed", "fleet_sm_util",
	// "engine_drain_ms", ...).
	TimelineKind = timeline.Kind
)

// TimelineKinds lists the series taxonomy in declaration order.
func TimelineKinds() []TimelineKind { return timeline.Kinds() }

// ParseTimelineKind resolves a wire name ("service_qps") to its kind.
func ParseTimelineKind(s string) (TimelineKind, error) { return timeline.ParseKind(s) }

// TimelineFingerprint hashes the deterministic subset of a timeline
// snapshot — every non-profile series, canonically encoded. Two runs
// of the same sharded scenario produce equal fingerprints for any lane
// or worker count; the wall-clock self-profiling series are excluded.
func TimelineFingerprint(tls []Timeline) string { return timeline.Fingerprint(tls) }

// WriteTimelines writes the snapshot as NDJSON, one series per line in
// (kind, scope) order — the format behind `mudisim -timelines-out`.
func WriteTimelines(w io.Writer, tls []Timeline) error {
	return timeline.WriteNDJSON(w, tls)
}

// WriteTimelinesFile atomically writes the NDJSON snapshot to path:
// the file appears complete or not at all.
func WriteTimelinesFile(path string, tls []Timeline) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return timeline.WriteNDJSON(w, tls)
	})
}
