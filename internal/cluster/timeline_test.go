package cluster

import (
	"runtime"
	"testing"

	"mudi/internal/faults"
	"mudi/internal/timeline"
	"mudi/internal/trace"
)

// tlRun is the timeline determinism workload: a classed catalog under a
// QPS burst with device faults injected — every series family (service,
// class, fleet, engine profile) gets exercised at once.
func tlRun(t testing.TB, shards int) *Result {
	t.Helper()
	return shardRun(t, 7, 6, 8, func(o *Options) {
		o.Services = classedServices()
		o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
		o.Faults = &faults.Config{DeviceMTBFSec: 120, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.3}
		o.Shards = shards
		o.Timeline = timeline.New(timeline.Defaults())
	})
}

// TestTimelineShardInvariance is the tentpole's golden: the non-profile
// timeline fingerprint of a faulted, bursty, classed run is
// byte-identical at every lane count and every worker count. Lane
// handlers only write per-device scratch; every Series.Add happens in
// the barrier phase in global device order, so parallel drain must not
// show through.
func TestTimelineShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("six faulted simulations in -short")
	}
	base := tlRun(t, 1)
	if base.DeviceFailures == 0 || base.ShedWindows == 0 {
		t.Fatalf("workload too tame (failures=%d shed_windows=%d); the invariance check would be vacuous",
			base.DeviceFailures, base.ShedWindows)
	}
	if len(base.Timelines) == 0 {
		t.Fatal("timeline-enabled run produced no series")
	}
	want := timeline.Fingerprint(base.Timelines)
	for _, shards := range []int{3, -1} {
		if got := timeline.Fingerprint(tlRun(t, shards).Timelines); got != want {
			t.Errorf("Shards=%d timeline fingerprint %s differs from Shards=1 %s", shards, got, want)
		}
	}
	old := runtime.GOMAXPROCS(1)
	oneWorker := timeline.Fingerprint(tlRun(t, 3).Timelines)
	runtime.GOMAXPROCS(8)
	eightWorkers := timeline.Fingerprint(tlRun(t, 3).Timelines)
	runtime.GOMAXPROCS(old)
	if oneWorker != want || eightWorkers != want {
		t.Errorf("worker-count variance: GOMAXPROCS=1 %s, GOMAXPROCS=8 %s, want %s", oneWorker, eightWorkers, want)
	}
}

// TestTimelineProfileSeries: a timeline run self-profiles — the
// engine phase series exist and carry samples, and they are excluded
// from the deterministic fingerprint (wall-clock is not reproducible).
func TestTimelineProfileSeries(t *testing.T) {
	res := tlRun(t, 3)
	byKind := map[string]timeline.Timeline{}
	for _, tl := range res.Timelines {
		if tl.Scope == "" {
			byKind[tl.Kind] = tl
		}
	}
	for _, k := range []timeline.Kind{
		timeline.EngineWindowMs, timeline.EngineDrainMs, timeline.EngineMergeMs,
		timeline.EngineApplyMs, timeline.EngineMail, timeline.EngineHeapBytes,
	} {
		tl, ok := byKind[k.String()]
		if !ok {
			t.Errorf("profile series %s missing from snapshot", k)
			continue
		}
		if len(tl.Levels) == 0 || len(tl.Levels[0].Buckets) == 0 {
			t.Errorf("profile series %s has no samples", k)
		}
	}
	with := timeline.Fingerprint(res.Timelines)
	stripped := res.Timelines[:0:0]
	for _, tl := range res.Timelines {
		k, err := timeline.ParseKind(tl.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if !k.Profile() {
			stripped = append(stripped, tl)
		}
	}
	if got := timeline.Fingerprint(stripped); got != with {
		t.Errorf("profile series leak into the fingerprint: stripped %s vs full %s", got, with)
	}
}

// TestTimelinePassive: recording timelines must not perturb the
// simulation — the classed faulted summary is byte-identical with the
// store attached and detached, at one lane and at several.
func TestTimelinePassive(t *testing.T) {
	if testing.Short() {
		t.Skip("four faulted simulations in -short")
	}
	for _, shards := range []int{1, 3} {
		bare := shardRun(t, 7, 6, 8, func(o *Options) {
			o.Services = classedServices()
			o.Bursts = []trace.Burst{{Start: 20, End: 80, Factor: 4}}
			o.Faults = &faults.Config{DeviceMTBFSec: 120, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.3}
			o.Shards = shards
		})
		timed := tlRun(t, shards)
		if bare.Summary() != timed.Summary() {
			t.Errorf("Shards=%d: timeline recording changed the summary:\n--- off\n%s\n--- on\n%s",
				shards, bare.Summary(), timed.Summary())
		}
		if len(timed.Timelines) == 0 {
			t.Errorf("Shards=%d: no timelines recorded", shards)
		}
		if len(bare.Timelines) != 0 {
			t.Errorf("Shards=%d: timelines present with no store attached", shards)
		}
	}
}
