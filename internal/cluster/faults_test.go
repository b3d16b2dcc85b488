package cluster

import (
	"fmt"
	"testing"

	"mudi/internal/faults"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/runner"
	"mudi/internal/span"
)

// faultOptions assembles a simulation with the given fault config over
// a compact trace.
func faultOptions(t testing.TB, seed uint64, devices, tasks int, fc *faults.Config, sink *obs.Sink) Options {
	t.Helper()
	oracle := perf.NewOracle(seed)
	return Options{
		Policy:   mustBuild(t, oracle, seed),
		Oracle:   oracle,
		Seed:     seed,
		Devices:  devices,
		Arrivals: smallArrivals(t, tasks, seed),
		Faults:   fc,
		Obs:      sink,
		Log:      span.NewRunLog(sink != nil, false, nil),
	}
}

func countEvents(events []obs.Event, typ obs.EventType) int {
	n := 0
	for _, e := range events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// TestDeviceFailureRequeuesAndCompletes is the tentpole's recovery
// contract: with injected device outages, every training task resident
// on a failed device is checkpointed, requeued through the scheduler,
// and still completes by the end of the run.
func TestDeviceFailureRequeuesAndCompletes(t *testing.T) {
	fc := &faults.Config{
		// Aggressive MTBF so a short run reliably sees outages; quick
		// recovery so capacity returns.
		DeviceMTBFSec: 120,
		DeviceMTTRSec: 30,
	}
	sink := obs.NewSink()
	sim, err := New(faultOptions(t, 11, 4, 8, fc, sink))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceFailures == 0 {
		t.Fatal("no device failures injected; raise the rate or the horizon")
	}
	if res.Failovers < res.DeviceFailures {
		t.Fatalf("failovers %d < device failures %d", res.Failovers, res.DeviceFailures)
	}
	if got := countEvents(res.Events, obs.EventDeviceFailed); got != res.DeviceFailures {
		t.Fatalf("device_failed events %d, counter %d", got, res.DeviceFailures)
	}
	if got := countEvents(res.Events, obs.EventDeviceRecovered); got != res.DeviceRecoveries {
		t.Fatalf("device_recovered events %d, counter %d", got, res.DeviceRecoveries)
	}
	// Every admitted task must survive its device's death: the forced
	// eviction requeues it and the run completes the full trace.
	if res.Completed != 8 {
		t.Fatalf("completed %d of 8 tasks under device failures", res.Completed)
	}
	// Failures with resident training must show up as migrations with
	// the device-failed cause.
	devFailMigrations := 0
	for _, e := range res.Events {
		if e.Type == obs.EventTaskMigrated && e.Cause == "device-failed" {
			devFailMigrations++
		}
	}
	if devFailMigrations == 0 {
		t.Log("no failure hit a device with resident training (legal but unusual for this seed)")
	}
}

// TestFaultsDisabledIdentical pins the zero-overhead contract: a nil
// Faults pointer and an all-zero (disabled) config produce the same
// summary and event stream as each other.
func TestFaultsDisabledIdentical(t *testing.T) {
	run := func(fc *faults.Config) (*Result, error) {
		sink := obs.NewSink()
		sim, err := New(faultOptions(t, 12, 3, 5, fc, sink))
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}
	nilRes, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	zeroRes, err := run(&faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if nilRes.Summary() != zeroRes.Summary() {
		t.Fatal("zero-config faults perturbed the summary")
	}
	if fmt.Sprint(nilRes.Events) != fmt.Sprint(zeroRes.Events) {
		t.Fatal("zero-config faults perturbed the event stream")
	}
	if nilRes.DeviceFailures+nilRes.Failovers+nilRes.MeasureRetries+nilRes.FailedSpinUps != 0 {
		t.Fatal("fault counters non-zero without an injector")
	}
}

// TestMeasureRetriesSurface injects a high transient measurement error
// rate and checks the retry loop runs (measure_retry events with
// attempt numbers) while the control loop keeps making decisions via
// the predictor-only fallback — the run still finishes the trace.
func TestMeasureRetriesSurface(t *testing.T) {
	fc := &faults.Config{MeasureErrRate: 0.45}
	sink := obs.NewSink()
	sim, err := New(faultOptions(t, 13, 3, 6, fc, sink))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasureRetries == 0 {
		t.Fatal("45% error rate produced no retries")
	}
	if got := countEvents(res.Events, obs.EventMeasureRetry); got != res.MeasureRetries {
		t.Fatalf("measure_retry events %d, counter %d", got, res.MeasureRetries)
	}
	for _, e := range res.Events {
		if e.Type == obs.EventMeasureRetry && (e.Value < 1 || e.Value > 3) {
			t.Fatalf("retry attempt %v outside default retry budget", e.Value)
		}
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d of 6 under measurement faults", res.Completed)
	}
}

// TestSpinUpFailureKeepsServing injects shadow spin-up failures: lost
// rescales must be recorded as failovers with the old instance still
// serving (the run keeps its SLO accounting and finishes the trace).
func TestSpinUpFailureKeepsServing(t *testing.T) {
	fc := &faults.Config{SpinUpFailRate: 0.5}
	sink := obs.NewSink()
	sim, err := New(faultOptions(t, 14, 3, 6, fc, sink))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedSpinUps == 0 {
		t.Fatal("50% spin-up failure rate lost no shadows")
	}
	for _, e := range res.Events {
		if e.Type == obs.EventFailover && e.Cause != "device-failed" && e.Cause != "shadow-spinup-failed" {
			t.Fatalf("unexpected failover cause %q", e.Cause)
		}
	}
	spinupFailovers := 0
	for _, e := range res.Events {
		if e.Type == obs.EventFailover && e.Cause == "shadow-spinup-failed" {
			spinupFailovers++
		}
	}
	if spinupFailovers != res.FailedSpinUps {
		t.Fatalf("shadow-spinup failover events %d, counter %d", spinupFailovers, res.FailedSpinUps)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d of 6 under spin-up failures", res.Completed)
	}
}

// TestFaultInjectionDeterministicAcrossParallelism is the satellite
// determinism check: the same seeded fault config produces the same
// summary and the same event stream whether replicas run on 1 worker
// or 8. Run under -race in CI, this also shakes out data races in the
// fault paths.
func TestFaultInjectionDeterministicAcrossParallelism(t *testing.T) {
	type out struct {
		summary string
		events  string
	}
	const replicas = 4
	runAll := func(parallel int) []out {
		pool := runner.New(parallel)
		cells := make([]runner.Cell[out], replicas)
		for i := 0; i < replicas; i++ {
			i := i
			cells[i] = runner.Cell[out]{
				Key: fmt.Sprintf("replica-%d", i),
				Run: func() (out, error) {
					fc := &faults.Config{
						DeviceMTBFSec:     240,
						DeviceMTTRSec:     40,
						MeasureErrRate:    0.2,
						SpinUpFailRate:    0.2,
						PCIeDegradeFactor: 3,
						PCIeMTBFSec:       300,
						PCIeMTTRSec:       60,
					}
					sink := obs.NewSink()
					sim, err := New(faultOptions(t, 20+uint64(i), 3, 5, fc, sink))
					if err != nil {
						return out{}, err
					}
					res, err := sim.Run()
					if err != nil {
						return out{}, err
					}
					return out{summary: res.Summary(), events: fmt.Sprint(res.Events)}, nil
				},
			}
		}
		ress, err := runner.Run(pool, cells)
		if err != nil {
			t.Fatal(err)
		}
		return ress
	}
	serial := runAll(1)
	wide := runAll(8)
	for i := range serial {
		if serial[i].summary != wide[i].summary {
			t.Fatalf("replica %d summary differs between 1 and 8 workers:\n%s\nvs\n%s",
				i, serial[i].summary, wide[i].summary)
		}
		if serial[i].events != wide[i].events {
			t.Fatalf("replica %d event stream differs between 1 and 8 workers", i)
		}
	}
}
