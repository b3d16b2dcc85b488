package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"mudi/internal/faults"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/shard"
	"mudi/internal/span"
	"mudi/internal/timeline"
	"mudi/internal/trace"
)

// shardSim builds a fresh policy (core.Mudi is stateful), applies
// mutate to the base options, and returns the unstarted simulation.
func shardSim(t testing.TB, seed uint64, devices, tasks int, mutate func(*Options)) *Sim {
	t.Helper()
	oracle := perf.NewOracle(seed)
	opts := Options{
		Policy:   mustBuild(t, oracle, seed),
		Oracle:   oracle,
		Seed:     seed,
		Devices:  devices,
		Arrivals: smallArrivals(t, tasks, seed),
	}
	if mutate != nil {
		mutate(&opts)
	}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// shardRun is shardSim run to completion.
func shardRun(t testing.TB, seed uint64, devices, tasks int, mutate func(*Options)) *Result {
	t.Helper()
	res, err := shardSim(t, seed, devices, tasks, mutate).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardCountInvariance is the engine's determinism golden:
// Result.Summary() is byte-identical at every lane count, including
// the auto default (0 and -1) and a lane count above the device count
// (clamped). Mirrors the runner's parallel-vs-sequential suite.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full simulations in -short")
	}
	want := shardRun(t, 3, 12, 24, func(o *Options) { o.Shards = 1 }).Summary()
	for _, shards := range []int{2, 3, 5, 12, 40, -1, 0} {
		got := shardRun(t, 3, 12, 24, func(o *Options) { o.Shards = shards }).Summary()
		if got != want {
			t.Errorf("Shards=%d summary differs from Shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s", shards, want, shards, got)
		}
	}
}

// TestShardFaultsInvariance: lane-count invariance must survive fault
// injection — outage windows, forced evictions, failovers, recovery
// redeployments all land at barriers.
func TestShardFaultsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three faulted simulations in -short")
	}
	fc := &faults.Config{DeviceMTBFSec: 120, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.3}
	run := func(shards int) *Result {
		return shardRun(t, 11, 8, 8, func(o *Options) {
			o.Faults = fc
			o.Shards = shards
		})
	}
	base := run(1)
	if base.DeviceFailures == 0 {
		t.Fatal("no device failures injected; the invariance check would be vacuous")
	}
	want := base.Summary()
	for _, shards := range []int{3, 8} {
		if got := run(shards).Summary(); got != want {
			t.Errorf("faulted run: Shards=%d summary differs from Shards=1", shards)
		}
	}
}

// TestShardClassesInvariance: class-aware runs shed at the admission
// door inside lane windows; the shed totals and per-class roll-ups
// must merge identically at any lane count.
func TestShardClassesInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three classed simulations in -short")
	}
	run := func(shards int) *Result {
		return shardRun(t, 7, 6, 8, func(o *Options) {
			o.Services = classedServices()
			o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
			o.Shards = shards
		})
	}
	base := run(1)
	if base.ShedWindows == 0 {
		t.Fatal("classed burst run shed nothing; the invariance check would be vacuous")
	}
	want := base.Summary()
	for _, shards := range []int{2, 6} {
		if got := run(shards).Summary(); got != want {
			t.Errorf("classed run: Shards=%d summary differs from Shards=1", shards)
		}
	}
}

// TestShardObservationPassive: every observer — events and metrics,
// tracing, attribution, recording, timelines — reads the lanes' window
// records back at the barrier, so an observed run drains in parallel
// and still publishes byte-identical outputs at any lane and worker
// count, without changing the summary of the unobserved run.
func TestShardObservationPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("three faulted simulations in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// outputs renders everything the observers published, one string per
	// output, in a fixed order.
	outputs := func(res *Result) []string {
		var wl bytes.Buffer
		if err := res.Workload.Encode(&wl); err != nil {
			t.Fatal(err)
		}
		out := []string{wl.String(), timeline.Fingerprint(res.Timelines)}
		for _, v := range []any{res.Events, res.Metrics, res.Spans, res.SLOReport} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	run := func(shards int) (*Result, int) {
		sim := shardSim(t, 7, 6, 8, func(o *Options) {
			burstFaultWorkload(o)
			o.Shards = shards
			o.Obs = obs.NewSink()
			o.Log = span.NewRunLog(true, true, nil)
			o.Record = trace.NewRecorder(7, 6, 1)
			o.Timeline = timeline.New(timeline.Defaults())
		})
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		// New bounds the engine's step concurrency by GOMAXPROCS and
		// the lane count.
		return res, min(runtime.GOMAXPROCS(0), len(shard.Split(sim.opts.Devices, shards)))
	}
	one, _ := run(1)
	four, workers := run(4)
	if workers < 2 {
		t.Fatalf("observed Shards=4 run drained on %d worker(s); the parallel check would be vacuous", workers)
	}
	if len(one.Events) == 0 || len(one.Spans) == 0 || one.SLOReport == nil || one.Workload == nil || len(one.Timelines) == 0 {
		t.Fatal("observed run produced no events/spans/report/workload/timelines")
	}
	names := []string{"Workload", "timeline fingerprint", "Events", "Metrics", "Spans", "SLOReport"}
	want := outputs(one)
	for i, got := range outputs(four) {
		if got != want[i] {
			t.Errorf("%s differs between Shards=1 and Shards=4 (%d workers)", names[i], workers)
		}
	}
	swapsPublishedOnce(t, one)
	bare := shardRun(t, 7, 6, 8, func(o *Options) {
		burstFaultWorkload(o)
		o.Shards = 4
	}).Summary()
	if got := four.Summary(); got != bare {
		t.Errorf("observed run summary differs from unobserved:\n--- off\n%s\n--- on\n%s", bare, got)
	}
}

// swapsPublishedOnce: every swap burst the pools recorded is published
// exactly once, as one mem_swap_in/out event and one mem_swap span — a
// flush that drops or repeats a burst breaks the count.
func swapsPublishedOnce(t *testing.T, res *Result) {
	t.Helper()
	events := countEvents(res.Events, obs.EventMemSwapIn) + countEvents(res.Events, obs.EventMemSwapOut)
	spans := 0
	for _, sp := range res.Spans {
		if sp.Kind == span.KindMemSwap {
			spans++
		}
	}
	if events != res.SwapEvents || spans != res.SwapEvents {
		t.Errorf("%d swap bursts published as %d events and %d spans", res.SwapEvents, events, spans)
	}
}

// TestSwapBurstsPublishedOnce: a MIG burst run that swaps heavily, both
// at barriers (placement allocations, batch resizes) and inside lane
// windows (reclaim touches), publishes every burst exactly once.
func TestSwapBurstsPublishedOnce(t *testing.T) {
	res := shardRun(t, 7, 4, 8, func(o *Options) {
		o.MIGSlices = 4
		o.Bursts = []trace.Burst{{Start: 40, End: 100, Factor: 3}}
		o.Shards = 4
		o.Obs = obs.NewSink()
		o.Log = span.NewRunLog(true, true, nil)
	})
	if res.SwapEvents == 0 {
		t.Fatal("burst run recorded no swaps; the check would be vacuous")
	}
	swapsPublishedOnce(t, res)
}

// TestWindowEventsPrecedeTheirReactions: a window's observation is its
// device's first mail, so every slo-risk retune a window triggers at
// barrier B comes after that device's slo_violation at B, at one lane
// and at several.
func TestWindowEventsPrecedeTheirReactions(t *testing.T) {
	type window struct {
		device string
		at     float64
	}
	for _, shards := range []int{1, 4} {
		res := shardRun(t, 7, 6, 8, func(o *Options) {
			burstFaultWorkload(o)
			o.Shards = shards
			o.Log = span.NewRunLog(true, false, nil)
		})
		violated := map[window]bool{}
		reactions := 0
		for i, e := range res.Events {
			w := window{e.Device, e.Time}
			switch {
			case e.Type == obs.EventSLOViolation:
				violated[w] = true
			case e.Type == obs.EventRetune && e.Cause == "slo-risk":
				reactions++
				if !violated[w] {
					t.Fatalf("Shards=%d: event %d, %s's slo-risk retune at %v, precedes its slo_violation", shards, i, e.Device, e.Time)
				}
			}
		}
		if reactions == 0 {
			t.Fatalf("Shards=%d: no slo-risk retune; the check would be vacuous", shards)
		}
	}
}

// TestDownDevicesSampledAfterEvents: every fleet_down_devices sample
// counts the devices whose last device_failed or device_recovered at
// or before that barrier is a failure. The injected outages start and
// end between window ends, so one more outage is forced to start
// exactly at a window barrier and to end exactly at a later one, from
// the barrier tick's cancellation check, after the barrier's events: a
// count taken earlier in the barrier would miss both edges.
func TestDownDevicesSampledAfterEvents(t *testing.T) {
	var sim *Sim
	var forced *deviceState
	var failedAt, recoveredAt float64
	check := func() {
		now := sim.sh.Now()
		switch {
		case forced == nil && now >= 30:
			for _, d := range sim.devices {
				if !d.down && !outageOverlaps(sim, d, now, now+5) {
					forced, failedAt = d, now
					sim.failDevice(now, d)
					return
				}
			}
		case forced != nil && recoveredAt == 0 && now >= failedAt+5:
			recoveredAt = now
			sim.recoverDevice(now, forced)
		}
	}
	sim = shardSim(t, 7, 6, 8, func(o *Options) {
		burstFaultWorkload(o)
		o.Shards = 3
		o.Log = span.NewRunLog(true, false, nil)
		o.Timeline = timeline.New(timeline.Defaults())
		o.Ctx = barrierCtx{Context: context.Background(), check: check}
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if forced == nil || recoveredAt == 0 || res.DeviceFailures < 2 {
		t.Fatalf("vacuous run: forced outage on %v over [%v, %v], %d failures", forced != nil, failedAt, recoveredAt, res.DeviceFailures)
	}
	var samples []timeline.Bucket
	for _, tl := range res.Timelines {
		if tl.Kind == timeline.FleetDownDevices.String() {
			samples = tl.Levels[0].Buckets
		}
	}
	if len(samples) == 0 {
		t.Fatal("no fleet_down_devices samples")
	}
	down := map[string]bool{}
	next, sawForced := 0, 0
	for _, b := range samples {
		for ; next < len(res.Events) && res.Events[next].Time <= b.Start; next++ {
			switch e := res.Events[next]; e.Type {
			case obs.EventDeviceFailed:
				down[e.Device] = true
			case obs.EventDeviceRecovered:
				down[e.Device] = false
			}
		}
		want := 0
		for _, isDown := range down {
			if isDown {
				want++
			}
		}
		if b.Count != 1 || b.Sum != float64(want) {
			t.Fatalf("fleet_down_devices at %v = %v (count %d), want %d", b.Start, b.Sum, b.Count, want)
		}
		if b.Start == failedAt || b.Start == recoveredAt {
			sawForced++
		}
	}
	if sawForced != 2 {
		t.Fatalf("samples at the forced outage's edges %v and %v: %d, want 2", failedAt, recoveredAt, sawForced)
	}
}

// outageOverlaps reports whether one of d's injected outages overlaps
// [from, to].
func outageOverlaps(sim *Sim, d *deviceState, from, to float64) bool {
	for _, w := range sim.inj.DeviceWindows(d.v.ID, sim.opts.MaxHorizonSec) {
		if w.Start <= to && w.End >= from {
			return true
		}
	}
	return false
}

// TestShardRecordReplay: a sharded run's recorded workload replays to
// a byte-identical summary — and the replay is itself lane-count
// invariant.
func TestShardRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("three full simulations in -short")
	}
	rec := trace.NewRecorder(9, 6, 1)
	recorded := shardRun(t, 9, 6, 8, func(o *Options) {
		o.Shards = 3
		o.Record = rec
	})
	if recorded.Workload == nil {
		t.Fatal("recording run produced no workload")
	}
	arrivals, err := recorded.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	replay := func(shards int) string {
		return shardRun(t, 9, 6, 8, func(o *Options) {
			o.Shards = shards
			o.Replay = recorded.Workload
			o.Arrivals = arrivals
		}).Summary()
	}
	want := recorded.Summary()
	if got := replay(3); got != want {
		t.Errorf("replay at Shards=3 differs from its recording:\n--- recorded\n%s\n--- replayed\n%s", want, got)
	}
	if got := replay(1); got != want {
		t.Errorf("replay at Shards=1 differs from the Shards=3 recording")
	}
}

// TestShardCompletes: basic liveness at a lane count that actually
// exercises parallel drains — every admitted task completes.
func TestShardCompletes(t *testing.T) {
	res := shardRun(t, 1, 12, 24, func(o *Options) { o.Shards = 4 })
	if res.Admitted == 0 || res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d admitted", res.Completed, res.Admitted)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %v", res.Makespan)
	}
}

// TestAdmitFactorDefaultPinsBurstFactor: the explicit AdmitFactor
// option, left at its default, must reproduce the historical behavior
// (admission cap = span.BurstFactor × nominal) byte for byte — the
// decoupling is an API change, not a behavior change.
func TestAdmitFactorDefaultPinsBurstFactor(t *testing.T) {
	run := func(mutate func(*Options)) *Result {
		return shardRun(t, 7, 6, 8, func(o *Options) {
			o.Services = classedServices()
			o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
			if mutate != nil {
				mutate(o)
			}
		})
	}
	def := run(nil)
	if def.ShedWindows == 0 {
		t.Fatal("default classed burst run shed nothing; the pin would be vacuous")
	}
	explicit := run(func(o *Options) { o.AdmitFactor = span.BurstFactor })
	if def.Summary() != explicit.Summary() {
		t.Errorf("explicit AdmitFactor=span.BurstFactor differs from the default:\n--- default\n%s\n--- explicit\n%s",
			def.Summary(), explicit.Summary())
	}
	// A looser cap admits more of the burst: strictly less shedding.
	loose := run(func(o *Options) { o.AdmitFactor = 3 * span.BurstFactor })
	if loose.ShedWindows >= def.ShedWindows {
		t.Errorf("AdmitFactor=%v shed %d windows, want fewer than the default's %d — the option is not wired into admission",
			3*span.BurstFactor, loose.ShedWindows, def.ShedWindows)
	}
	if !strings.Contains(def.Summary(), "shed_windows=") {
		t.Fatal("classed summary missing shed_windows line")
	}
}

// TestAdmitFactorValidation: non-finite or non-positive factors are
// construction errors; zero selects the default.
func TestAdmitFactorValidation(t *testing.T) {
	oracle := perf.NewOracle(1)
	base := Options{
		Policy:   mustBuild(t, oracle, 1),
		Oracle:   oracle,
		Seed:     1,
		Devices:  2,
		Arrivals: smallArrivals(t, 2, 1),
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := base
		opts.AdmitFactor = bad
		if _, err := New(opts); err == nil {
			t.Errorf("AdmitFactor=%v accepted", bad)
		}
	}
	opts := base
	opts.AdmitFactor = 0
	if _, err := New(opts); err != nil {
		t.Errorf("AdmitFactor=0 (default) rejected: %v", err)
	}
}

// TestArrivalTimeValidation: a negative, NaN or infinite arrival time
// is a construction error, not a NaN completion time or a run that
// never reaches its horizon.
func TestArrivalTimeValidation(t *testing.T) {
	oracle := perf.NewOracle(1)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		arrivals := smallArrivals(t, 2, 1)
		arrivals[1].At = bad
		opts := Options{Policy: mustBuild(t, oracle, 1), Oracle: oracle, Seed: 1, Devices: 2, Arrivals: arrivals}
		if _, err := New(opts); err == nil {
			t.Errorf("arrival At=%v accepted", bad)
		}
	}
}
