package mudi

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mudi/internal/span"
)

// faultedSmall is the faulted golden's workload: the small options with
// an SLO-class mix, a burst, and every fault class that reaches the
// control-plane record (device outages, measurement retries, failed
// shadow spin-ups), observed and traced.
func faultedSmall(observer Observer) SimOptions {
	opts := small()
	opts.Tasks = 6
	opts.ClassMix = []SLOClass{SLOCritical, SLOSheddable, SLOStandard}
	opts.Bursts = []Burst{{Start: 20, End: 60, Factor: 4}}
	opts.Faults = &FaultConfig{DeviceMTBFSec: 150, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.2}
	opts.Trace = true
	opts.Observer = observer
	return opts
}

// TestFaultedRecordGolden pins the three renderings of a faulted,
// classed, bursty run byte for byte: the NDJSON event stream, the
// Chrome trace, and the SLO attribution report. The workload is chosen
// to reach every control action the fault-free goldens miss — task
// migration, device outages (some unhealed at the horizon), both
// failover causes, measurement retries, load shedding, BO probes and
// infeasible retunes — and to stay below every store cap, so nothing
// is dropped. Regenerate with:
//
//	go test . -run FaultedRecordGolden -update
func TestFaultedRecordGolden(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	res, err := sys.Simulate(faultedSmall(func(Event) { observed++ }))
	if err != nil {
		t.Fatal(err)
	}

	// Nothing dropped: the event view holds every event the Observer
	// saw, the span view is below its cap, and the report lists every
	// violation it counts.
	if observed != len(res.Events) {
		t.Fatalf("observer saw %d events, Result.Events holds %d", observed, len(res.Events))
	}
	if len(res.Spans) >= span.DefSpanCap {
		t.Fatalf("span view reached its cap (%d spans)", len(res.Spans))
	}
	rep := res.SLOReport
	if rep == nil || rep.Total == 0 || len(rep.Violations) != rep.Total {
		t.Fatalf("SLO report incomplete: %+v", rep)
	}

	// Every path the workload exists for is exercised.
	seen := make(map[string]bool)
	for _, e := range res.Events {
		seen[e.Type.String()] = true
		if e.Type == EventFailover {
			seen["failover:"+e.Cause] = true
		}
	}
	for _, s := range res.Spans {
		seen["span:"+s.Kind.String()] = true
		if s.Kind == SpanRetune && strings.HasSuffix(s.Cause, ";infeasible") {
			seen["span:retune;infeasible"] = true
		}
	}
	for _, want := range []string{
		"task_migrated", "span:migrate", "device_failed", "device_recovered", "span:outage",
		"failover:device-failed", "failover:shadow-spinup-failed", "measure_retry",
		"load_shed", "span:bo_iter", "span:retune;infeasible",
	} {
		if !seen[want] {
			t.Errorf("workload does not exercise %s", want)
		}
	}

	var events, trace, slo bytes.Buffer
	if err := WriteEventsNDJSON(&events, res.Events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&trace, res.Spans); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&slo)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"faulted_events.golden", events.Bytes()},
		{"faulted_trace.golden", trace.Bytes()},
		{"faulted_slo.golden", slo.Bytes()},
	} {
		path := filepath.Join("testdata", g.name)
		if *updateTraceGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs (got %d bytes, want %d); regenerate with -update if the record taxonomy changed",
				path, len(g.got), len(want))
		}
	}
}
