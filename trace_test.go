package mudi

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the golden Chrome-trace file instead of comparing
// against it:
//
//	go test . -run ChromeTraceGolden -update
var updateTraceGolden = flag.Bool("update", false, "rewrite golden files")

// TestTraceDoesNotPerturbSummary is the tracing layer's core contract:
// a traced run and an untraced run of the same options produce
// byte-identical Result summaries, and only the traced run carries
// spans and an attribution report.
func TestTraceDoesNotPerturbSummary(t *testing.T) {
	newSys := func() *System {
		sys, err := NewSystem(SystemConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain, err := newSys().Simulate(small())
	if err != nil {
		t.Fatal(err)
	}
	opts := small()
	opts.Trace = true
	traced, err := newSys().Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary() != traced.Summary() {
		t.Error("tracing perturbed Result.Summary()")
	}
	if len(traced.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if traced.SLOReport == nil {
		t.Fatal("traced run has no SLO report")
	}
	if plain.Spans != nil || plain.SLOReport != nil {
		t.Error("untraced run collected tracing state")
	}
}

// TestChromeTraceGolden pins the exported Chrome trace-event JSON of a
// seeded small workload byte-for-byte. A diff here is either an
// intentional format/span-taxonomy change (regenerate with -update) or
// a determinism regression. The golden bytes are also revalidated
// structurally: well-formed JSON, non-empty complete events, and
// monotonic timestamps within each track.
func TestChromeTraceGolden(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opts := small()
	opts.Trace = true
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Spans); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_small.golden")
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from %s (got %d bytes, want %d); regenerate with -update if the format changed",
			golden, buf.Len(), len(want))
	}

	// Structural validation of what a viewer will parse.
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	complete := 0
	lastTS := make(map[int]float64)
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M": // track metadata
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("event %q has negative dur %f", ev.Name, ev.Dur)
			}
			if ev.TS < lastTS[ev.TID] {
				t.Errorf("track %d: ts %f before previous %f", ev.TID, ev.TS, lastTS[ev.TID])
			}
			lastTS[ev.TID] = ev.TS
		default:
			t.Errorf("unexpected event phase %q", ev.Phase)
		}
	}
	if complete == 0 {
		t.Fatal("trace has no complete (X) events")
	}
}

// TestAttributionCausesValid stresses the attributor with a faulted,
// bursty run and checks the report's accounting: every violation
// carries exactly one known cause, and the per-service and per-cause
// tallies sum back to the report total.
func TestAttributionCausesValid(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	opts := small()
	opts.Trace = true
	opts.LoadFactor = 1.5
	opts.Bursts = []Burst{{Start: 20, End: 60, Factor: 3}}
	opts.Faults = &FaultConfig{DeviceMTBFSec: 120, DeviceMTTRSec: 30}
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SLOReport
	if rep == nil {
		t.Fatal("no SLO report")
	}
	if rep.Total == 0 {
		t.Skip("workload produced no violations at this seed; nothing to attribute")
	}
	valid := make(map[string]bool)
	for _, c := range []ViolationCause{
		CauseDeviceFault, CauseRescale, CauseBurstOverload,
		CauseInterference, CauseQueueing,
	} {
		valid[c.String()] = true
	}
	if len(rep.Violations) != rep.Total {
		t.Fatalf("report lists %d violations, total says %d", len(rep.Violations), rep.Total)
	}
	for i, v := range rep.Violations {
		if !valid[v.Cause.String()] {
			t.Errorf("violation %d has unknown cause %q", i, v.Cause)
		}
		if v.Service == "" || v.Device == "" {
			t.Errorf("violation %d missing labels: %+v", i, v)
		}
	}
	svcSum, causeSum := 0, 0
	for _, svc := range rep.Services {
		svcSum += svc.Violations
		perSvc := 0
		for cause, n := range svc.Causes {
			if !valid[cause] {
				t.Errorf("service %s: unknown cause %q in breakdown", svc.Service, cause)
			}
			perSvc += n
		}
		if perSvc != svc.Violations {
			t.Errorf("service %s: cause breakdown sums to %d, violations = %d",
				svc.Service, perSvc, svc.Violations)
		}
		causeSum += perSvc
	}
	if svcSum != rep.Total || causeSum != rep.Total {
		t.Errorf("per-service sum %d / per-cause sum %d != total %d", svcSum, causeSum, rep.Total)
	}
}

// TestTelemetrySharesInstruments drives the public Telemetry handle
// through a run: it must imply observation + tracing, filling both the
// metrics snapshot and the span stream. (The HTTP surface over these
// instruments is tested in the telemetryhttp package — keeping
// net/http out of this test binary preserves the allocation-budget
// benchmarks' baseline.)
func TestTelemetrySharesInstruments(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	opts := small()
	opts.Telemetry = tel
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 || res.Metrics == nil {
		t.Fatalf("Telemetry did not imply tracing+observation: spans=%d metrics=%v",
			len(res.Spans), res.Metrics != nil)
	}
	sink, log := tel.Instruments()
	if sink == nil || log == nil || log.Attributor() == nil {
		t.Fatal("Instruments returned nils")
	}
	if ev, sp := log.Views(); ev.Len != len(res.Events) || sp.Len != len(res.Spans) {
		t.Errorf("shared log holds %d events and %d spans, result carries %d and %d",
			ev.Len, sp.Len, len(res.Events), len(res.Spans))
	}
}
