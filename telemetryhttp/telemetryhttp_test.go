package telemetryhttp

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mudi"
)

// TestLiveEndpoints drives the public Telemetry handle through a run
// and polls its HTTP surface the way an operator would.
func TestLiveEndpoints(t *testing.T) {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tel := mudi.NewTelemetry()
	res, err := sys.Simulate(mudi.SimOptions{
		Devices: 4, Tasks: 5, MeanGapSec: 5, IterScale: 0.001,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 || res.Metrics == nil {
		t.Fatalf("Telemetry did not imply tracing+observation: spans=%d metrics=%v",
			len(res.Spans), res.Metrics != nil)
	}
	srv := httptest.NewServer(Handler(tel))
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status"`) {
		t.Errorf("/healthz: %s", body)
	}
	var rep mudi.SLOReport
	if err := json.Unmarshal([]byte(get("/slo")), &rep); err != nil {
		t.Errorf("/slo is not a valid report: %v", err)
	}
	if body := get("/metrics"); !strings.Contains(body, "# TYPE") {
		t.Errorf("/metrics has no type metadata:\n%.200s", body)
	}
}

// TestLiveEndpointsDuringRun polls the live surface while a faulted,
// bursty, classed run is in flight. Every cause /slo shows is final: a
// mid-run violation list is a prefix of the final one, causes
// included, and the final /slo equals the run's Result.SLOReport.
func TestLiveEndpointsDuringRun(t *testing.T) {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tel := mudi.NewTelemetry()
	srv := httptest.NewServer(Handler(tel))
	defer srv.Close()
	fetch := func(path string) (int, []byte) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	get := func(path string) []byte {
		code, body := fetch(path)
		if code != 200 {
			t.Fatalf("GET %s: status %d: %s", path, code, body)
		}
		return body
	}
	// The fleet series exists from the run's first window on.
	const fleetSeries = "/timeline?series=fleet_sm_util&res=8"
	seriesSeen := false
	slo := func() mudi.SLOReport {
		var rep mudi.SLOReport
		if err := json.Unmarshal(get("/slo"), &rep); err != nil {
			t.Fatalf("/slo is not a valid report: %v", err)
		}
		return rep
	}

	var (
		res    *mudi.Result
		runErr error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = sys.Simulate(mudi.SimOptions{
			Devices: 16, Tasks: 8, MeanGapSec: 5, IterScale: 0.001,
			ClassMix:  []mudi.SLOClass{mudi.SLOCritical, mudi.SLOSheddable, mudi.SLOStandard},
			Bursts:    []mudi.Burst{{Start: 20, End: 60, Factor: 3}},
			Faults:    &mudi.FaultConfig{DeviceMTBFSec: 150, DeviceMTTRSec: 30, SpinUpFailRate: 0.2},
			Telemetry: tel,
		})
	}()
	var mids []mudi.SLOReport
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			mids = append(mids, slo())
			if body := get("/metrics"); !strings.Contains(string(body), "# TYPE") {
				t.Errorf("/metrics has no type metadata:\n%.200s", body)
			}
			if body := get("/healthz"); !strings.Contains(string(body), `"status"`) {
				t.Errorf("/healthz: %s", body)
			}
			if code, body := fetch(fleetSeries); code == 200 {
				seriesSeen = true
			} else if seriesSeen || code != 404 {
				t.Fatalf("GET %s: status %d: %s", fleetSeries, code, body)
			}
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	var fleet struct{ Values []float64 }
	if err := json.Unmarshal(get(fleetSeries), &fleet); err != nil || len(fleet.Values) == 0 {
		t.Errorf("%s: %d values, err %v", fleetSeries, len(fleet.Values), err)
	}

	final := slo()
	if final.Total == 0 || len(final.Violations) != final.Total {
		t.Fatalf("final report lists %d of %d violations; the workload should violate and stay below the cap", len(final.Violations), final.Total)
	}
	for i, mid := range mids {
		if n := len(mid.Violations); n > len(final.Violations) || n > 0 && !reflect.DeepEqual(mid.Violations, final.Violations[:n]) {
			t.Fatalf("poll %d: its %d violations are not a prefix of the final %d", i, n, len(final.Violations))
		}
	}
	var want mudi.SLOReport
	b, err := json.Marshal(res.SLOReport)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, want) {
		t.Errorf("final /slo differs from Result.SLOReport")
	}
	t.Logf("%d polls during the run; %d violations", len(mids), final.Total)
}
