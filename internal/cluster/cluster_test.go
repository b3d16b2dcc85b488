package cluster

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/core"
	"mudi/internal/gpu"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// mustBuild is core.Build for Mudi, failing the test on an error.
func mustBuild(t testing.TB, oracle *perf.Oracle, seed uint64) *core.Mudi {
	t.Helper()
	m, err := core.Build(oracle, seed, core.MudiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// smallArrivals generates a compact trace: tasks shrunk to seconds.
func smallArrivals(t testing.TB, n int, seed uint64) []trace.TaskArrival {
	t.Helper()
	arr, err := trace.PhillyTrace(trace.PhillyConfig{
		Count:      n,
		MeanGapSec: 4,
		ScaleIters: 0.001,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func runPolicy(t testing.TB, policy core.Policy, oracle *perf.Oracle, arrivals []trace.TaskArrival, devices int, seed uint64) *Result {
	t.Helper()
	sim, err := New(Options{
		Policy:   policy,
		Oracle:   oracle,
		Seed:     seed,
		Devices:  devices,
		Arrivals: arrivals,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMudiEndToEnd(t *testing.T) {
	oracle := perf.NewOracle(1)
	mudi := mustBuild(t, oracle, 1)
	arrivals := smallArrivals(t, 24, 1)
	res := runPolicy(t, mudi, oracle, arrivals, 12, 1)

	if res.Admitted != len(arrivals) {
		t.Fatalf("admitted %d of %d", res.Admitted, len(arrivals))
	}
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", res.Completed, len(arrivals))
	}
	if res.Unfinished != 0 {
		t.Fatalf("a run that completed every task reports %d unfinished", res.Unfinished)
	}
	if len(res.CTs) != res.Completed || len(res.WaitingT) != res.Completed {
		t.Fatal("metric lengths inconsistent")
	}
	for _, ct := range res.CTs {
		if ct <= 0 {
			t.Fatalf("non-positive CT %v", ct)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// The headline SLO claim at nominal load: low violation rates.
	if v := res.MeanSLOViolation(); v > 0.08 {
		t.Fatalf("Mudi SLO violation %v too high at nominal load", v)
	}
	if res.SMUtil.Len() == 0 || res.MemUtil.Len() == 0 {
		t.Fatal("utilization series empty")
	}
}

func TestMudiBeatsBaselinesSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run is slow")
	}
	oracle := perf.NewOracle(2)
	arrivals := smallArrivals(t, 20, 2)
	const devices = 12

	mudi := mustBuild(t, oracle, 2)
	resMudi := runPolicy(t, mudi, oracle, arrivals, devices, 2)

	gpulets, err := baselines.NewGpulets(oracle, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	resGpulets := runPolicy(t, gpulets, oracle, arrivals, devices, 2)
	resGSLICE := runPolicy(t, baselines.NewGSLICE(), oracle, arrivals, devices, 2)
	resMux := runPolicy(t, baselines.NewMuxFlow(oracle), oracle, arrivals, devices, 2)

	// Fig. 8's shape: Mudi has the lowest SLO violation rate. At this
	// easy nominal load every system sits near zero, so allow 0.2pp of
	// absolute noise; the load-sweep test (internal/exp) checks the
	// strict ordering where the systems actually separate.
	vm := resMudi.MeanSLOViolation()
	for _, other := range []*Result{resGpulets, resGSLICE, resMux} {
		if vm > other.MeanSLOViolation()+0.002 {
			t.Fatalf("Mudi violation %v above %s's %v", vm, other.Policy, other.MeanSLOViolation())
		}
	}
	// All systems complete the workload at this scale.
	for _, r := range []*Result{resMudi, resGpulets, resGSLICE, resMux} {
		if r.Completed != len(arrivals) {
			t.Fatalf("%s completed %d/%d", r.Policy, r.Completed, len(arrivals))
		}
	}
	// Fig. 9's shape: Mudi's training completes at least as fast as
	// GSLICE's (which has no interference-aware placement).
	if resMudi.MeanCT() > resGSLICE.MeanCT()*1.1 {
		t.Fatalf("Mudi CT %v not competitive with GSLICE %v", resMudi.MeanCT(), resGSLICE.MeanCT())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		oracle := perf.NewOracle(5)
		mudi := mustBuild(t, oracle, 5)
		arrivals := smallArrivals(t, 10, 5)
		return runPolicy(t, mudi, oracle, arrivals, 6, 5)
	}
	a, b := run(), run()
	if a.MeanCT() != b.MeanCT() || a.Makespan != b.Makespan {
		t.Fatalf("CT/makespan differ: %v/%v vs %v/%v", a.MeanCT(), a.Makespan, b.MeanCT(), b.Makespan)
	}
	if a.MeanSLOViolation() != b.MeanSLOViolation() {
		t.Fatal("violation rates differ between identical runs")
	}
	// The canonical summary covers every simulated metric; identical
	// seeds must yield identical bytes.
	if a.Summary() != b.Summary() {
		t.Fatal("canonical summaries differ between identical runs")
	}
}

func TestSummaryExcludesWallClock(t *testing.T) {
	oracle := perf.NewOracle(5)
	mudi := mustBuild(t, oracle, 5)
	arrivals := smallArrivals(t, 6, 5)
	res := runPolicy(t, mudi, oracle, arrivals, 4, 5)
	before := res.Summary()
	if before == "" || !strings.Contains(before, "policy=") {
		t.Fatalf("summary malformed: %q", before)
	}
	// PlacementOverheadMs is measured in wall-clock time and varies
	// from run to run; the summary must not depend on it.
	res.PlacementOverheadMs = append(res.PlacementOverheadMs, 123456)
	if res.Summary() != before {
		t.Fatal("summary changed when wall-clock placement overhead changed")
	}
}

// TestPlacementOverheadBelowMicrosecond checks that placement
// overheads keep sub-µs resolution: a placement over four devices
// takes a few µs, and a whole-µs record (or 0 for a sub-µs call) is
// the truncation this field once had.
func TestPlacementOverheadBelowMicrosecond(t *testing.T) {
	oracle := perf.NewOracle(5)
	res := runPolicy(t, mustBuild(t, oracle, 5), oracle, smallArrivals(t, 6, 5), 4, 5)
	if len(res.PlacementOverheadMs) == 0 {
		t.Fatal("no placement recorded")
	}
	for _, ms := range res.PlacementOverheadMs {
		if us := ms * 1000; us != math.Trunc(us) {
			return
		}
	}
	t.Fatalf("every placement overhead is a whole µs: %v", res.PlacementOverheadMs)
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("nil policy accepted")
	}
	oracle := perf.NewOracle(1)
	if _, err := New(Options{Policy: baselines.NewGSLICE()}); err == nil {
		t.Fatal("nil oracle accepted")
	}
	if _, err := New(Options{Policy: baselines.NewGSLICE(), Oracle: oracle}); err == nil {
		t.Fatal("zero devices accepted")
	}
}

func TestLoadSensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep is slow")
	}
	// Fig. 15: higher load ⇒ higher violation rate, monotone-ish.
	oracle := perf.NewOracle(6)
	mudi := mustBuild(t, oracle, 6)
	arrivals := smallArrivals(t, 10, 6)
	var prev float64 = -1
	for _, load := range []float64{1, 3} {
		sim, err := New(Options{
			Policy: mudi, Oracle: oracle, Seed: 6, Devices: 6,
			Arrivals: arrivals, LoadFactor: load,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		v := res.MeanSLOViolation()
		if v < prev {
			t.Fatalf("violation decreased with load: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestBurstTriggersSwapsAndPauses(t *testing.T) {
	oracle := perf.NewOracle(7)
	mudi := mustBuild(t, oracle, 7)
	arrivals := smallArrivals(t, 8, 7)
	// MIG slices shrink each instance to 10 GB so the burst-driven
	// batch growth actually oversubscribes memory: swap accounting only
	// counts real evictions and reclaims (first-touch allocations are
	// free), so the scenario must create genuine pressure.
	sim, err := New(Options{
		Policy: mudi, Oracle: oracle, Seed: 7, Devices: 4, MIGSlices: 4,
		Arrivals: arrivals,
		Bursts:   []trace.Burst{{Start: 40, End: 100, Factor: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapEvents == 0 {
		t.Fatal("expected memory swap activity")
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d under burst", res.Completed, res.Admitted)
	}
}

func TestMIGSlices(t *testing.T) {
	oracle := perf.NewOracle(9)
	mudi := mustBuild(t, oracle, 9)
	arrivals := smallArrivals(t, 10, 9)
	sim, err := New(Options{
		Policy: mudi, Oracle: oracle, Seed: 9, Devices: 3,
		Arrivals: arrivals, MIGSlices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 physical GPUs × 2 MIG slices = 6 schedulable devices.
	if len(sim.devices) != 6 {
		t.Fatalf("schedulable devices %d, want 6", len(sim.devices))
	}
	for _, d := range sim.devices {
		if d.pool.CapacityMB() != 20480 {
			t.Fatalf("MIG instance memory %v, want half an A100", d.pool.CapacityMB())
		}
	}
	// Every valid slice count splits each A100's memory exactly into k
	// instances with fleet-unique IDs.
	for k := 1; k <= 7; k++ {
		split, err := New(Options{
			Policy: mudi, Oracle: oracle, Seed: 9, Devices: 3,
			Arrivals: arrivals, MIGSlices: k,
		})
		if err != nil {
			t.Fatalf("MIGSlices %d: %v", k, err)
		}
		if len(split.devices) != 3*k {
			t.Fatalf("MIGSlices %d: schedulable devices %d, want %d", k, len(split.devices), 3*k)
		}
		ids := make(map[string]bool, len(split.devices))
		for _, d := range split.devices {
			if diff := d.pool.CapacityMB()*float64(k) - gpu.A100MemoryMB; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("MIGSlices %d: %s memory %v × %d != %d", k, d.v.ID, d.pool.CapacityMB(), k, gpu.A100MemoryMB)
			}
			if ids[d.v.ID] {
				t.Fatalf("MIGSlices %d: duplicate device ID %s", k, d.v.ID)
			}
			ids[d.v.ID] = true
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d under MIG", res.Completed, res.Admitted)
	}
	// Halved memory must increase swap pressure vs whole GPUs.
	if res.SwapEvents == 0 {
		t.Fatal("no swapping on memory-constrained MIG instances")
	}
}

func TestMIGValidation(t *testing.T) {
	oracle := perf.NewOracle(9)
	if _, err := New(Options{
		Policy: baselines.NewGSLICE(), Oracle: oracle, Devices: 2, MIGSlices: 8,
	}); err == nil {
		t.Fatal("8 MIG slices accepted")
	}
}

func TestMaxThroughputErrors(t *testing.T) {
	oracle := perf.NewOracle(1)
	policy := baselines.NewGSLICE()
	if _, err := MaxThroughput(policy, oracle, "nope", "LSTM", 0.05, 1); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := MaxThroughput(policy, oracle, "BERT", "nope", 0.05, 1); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestRequeueAfterLongPause(t *testing.T) {
	// Force a pause: a single GPT2 device at 4x load with a heavy task
	// cannot hold the SLO, so the task pauses and is eventually
	// requeued; with no alternative device it keeps waiting, and the
	// simulation still terminates at the safety horizon.
	oracle := perf.NewOracle(13)
	mudi := mustBuild(t, oracle, 13)
	yolo, _ := model.TaskByName("YOLOv5")
	gpt2, _ := model.ServiceByName("GPT2")
	arrivals := []trace.TaskArrival{{ID: 0, At: 5, Task: yolo, Iters: 800, GPUsReq: 1}}
	sim, err := New(Options{
		Policy: mudi, Oracle: oracle, Seed: 13, Devices: 1,
		Services:      []model.InferenceService{gpt2},
		Arrivals:      arrivals,
		LoadFactor:    4,
		MaxHorizonSec: 900,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PausedEpisodes == 0 {
		t.Fatal("expected pause episodes under 4x load")
	}
	// Whether the task finished depends on trough windows; the key
	// property is termination without error and sane accounting.
	if res.Completed > res.Admitted {
		t.Fatal("accounting inconsistent")
	}
}

// TestUnfinishedAtHorizon: a run cut short by MaxHorizonSec reports
// every arrival it did not complete, the queued and the never-arrived
// included, and keeps the count out of Summary().
func TestUnfinishedAtHorizon(t *testing.T) {
	oracle := perf.NewOracle(15)
	arrivals := smallArrivals(t, 24, 15)
	// Stop mid-trace on two devices: some tasks never arrive, and more
	// arrive than two devices hold, so some are still queued.
	horizon := arrivals[len(arrivals)/2].At + 1
	late := 0
	for _, a := range arrivals {
		if a.At > horizon {
			late++
		}
	}
	policy, err := baselines.New("gslice", oracle, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Options{Policy: policy, Oracle: oracle, Seed: 15, Devices: 2, Arrivals: arrivals, MaxHorizonSec: horizon})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	queued := len(arrivals) - late - res.Admitted
	if late == 0 || queued == 0 {
		t.Fatalf("%d late and %d queued arrivals; the test needs both", late, queued)
	}
	if res.Unfinished != len(arrivals)-res.Completed || res.Unfinished < late+queued {
		t.Fatalf("unfinished %d with %d of %d completed, %d queued and %d arriving after the horizon",
			res.Unfinished, res.Completed, len(arrivals), queued, late)
	}
	if strings.Contains(res.Summary(), "unfinished") {
		t.Fatal("Summary() reports the unfinished count")
	}
}

func TestResultWriteJSON(t *testing.T) {
	oracle := perf.NewOracle(14)
	mudi := mustBuild(t, oracle, 14)
	arrivals := smallArrivals(t, 6, 14)
	res := runPolicy(t, mudi, oracle, arrivals, 4, 14)

	var b strings.Builder
	if err := res.WriteJSON(&b, 16); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if decoded["policy"] != "mudi" {
		t.Fatalf("policy %v", decoded["policy"])
	}
	if decoded["completed"].(float64) != 6 {
		t.Fatalf("completed %v", decoded["completed"])
	}
	series, ok := decoded["sm_util_series"].([]any)
	if !ok || len(series) != 16 {
		t.Fatalf("sm series %v", decoded["sm_util_series"])
	}
	// Without series points the series are omitted.
	var b2 strings.Builder
	if err := res.WriteJSON(&b2, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), "sm_util_series") {
		t.Fatal("series not omitted")
	}
}

// TestMeanP99OnlyMeasuredServices: a service whose windows are never
// measured (the oracle has no curve for it) gets neither a mean P99 nor
// a violation rate, while a measured one gets both.
func TestMeanP99OnlyMeasuredServices(t *testing.T) {
	measured := model.Services()[0]
	unprofiled := measured
	unprofiled.Name = "Unprofiled"
	sim, err := New(Options{
		Policy:        baselines.NewRandom(xrand.New(1), 1),
		Oracle:        perf.NewOracle(1),
		Seed:          1,
		Devices:       2,
		Services:      []model.InferenceService{measured, unprofiled},
		MaxHorizonSec: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{measured.Name: true, unprofiled.Name: false} {
		p99, hasP99 := res.MeanP99[name]
		_, hasViol := res.SLOViolation[name]
		if hasP99 != want || hasViol != want || (want && p99 <= 0) {
			t.Errorf("%s: mean P99 %v (key %v), violation key %v; want keys %v", name, p99, hasP99, hasViol, want)
		}
	}
}
