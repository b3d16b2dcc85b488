package cluster

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"mudi/internal/core"
	"mudi/internal/faults"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/shard"
	"mudi/internal/span"
	"mudi/internal/trace"
)

// viewInputs is what the rebuilt view reads that has no home left but
// the kept view itself: the service's QPS at its last (re)tune, its
// batch and its Δ. keptViewRun follows them on the run's event stream.
type viewInputs struct {
	qps   float64
	batch int
	delta float64
}

// referenceView rebuilds d's view from the device's state and in, the
// reference its kept view must equal. FreeShare is the share not
// claimed by the inference service. SMUtil has no other source, so it
// is the kept view's.
func referenceView(d *deviceState, in viewInputs) core.DeviceView {
	free := 1 - in.delta
	if free < 0 {
		free = 0
	}
	residents := make([]model.TrainingTask, len(d.training))
	paused := false
	for i, t := range d.training {
		residents[i] = t.task
		paused = paused || t.paused
	}
	return core.DeviceView{
		Paused:        paused,
		ID:            d.v.ID,
		ServiceName:   d.svc.info.Name,
		ServiceClass:  d.svc.info.Class,
		SLOms:         d.svc.info.SLOms,
		QPS:           in.qps,
		Batch:         in.batch,
		Delta:         in.delta,
		ResidentTasks: residents,
		FreeShare:     free,
		SMUtil:        d.v.SMUtil,
	}
}

// barrierCtx runs check at every window barrier: the barrier tick's
// cancellation check is the run's one call into its context there,
// after the window's mail and events and before the utilization sums.
type barrierCtx struct {
	context.Context
	check func()
}

func (c barrierCtx) Err() error {
	c.check()
	return nil
}

// keptViewRun runs opts on 4 lanes stepped by at least 2 workers, so
// lanes write the views they own, and after every window barrier
// compares each device's kept view with referenceView, field by field
// and the residents by contents. A down device's SM utilization must
// be zero, and some device's must be positive. It returns the run's
// result.
func keptViewRun(t *testing.T, opts Options) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var sim *Sim
	inputs := map[string]*viewInputs{}
	// The event stream says where each input moved: a retune's trigger
	// sets the QPS (a deployment reads the trace, a Monitor trigger the
	// window's admitted rate), a batch change the batch and a rescale
	// the Δ.
	observe := func(e obs.Event) {
		in, d := inputs[e.Device], sim.meas[e.Device].dev
		switch e.Type {
		case obs.EventRetune:
			switch e.Cause {
			case "initial", "recovery":
				in.qps = d.svc.qpsTrace.At(e.Time)
			case "qps-change", "resume-probe", "slo-risk":
				in.qps = d.rec.qps
			}
		case obs.EventBatchChanged:
			in.batch = int(e.Value)
		case obs.EventGPURescaled:
			in.delta = e.Value
		}
	}
	barriers, busy := 0, false
	check := func() {
		barriers++
		for _, d := range sim.devices {
			// DeepEqual compares the residents by contents, and a nil
			// list differs from the reference's empty one.
			if want := referenceView(d, *inputs[d.v.ID]); !reflect.DeepEqual(d.v, want) {
				t.Fatalf("barrier %d at %v: %s view\n%+v\nwant\n%+v", barriers, sim.sh.Now(), d.v.ID, d.v, want)
			}
			if d.down && d.v.SMUtil != 0 {
				t.Fatalf("barrier %d at %v: down %s at SM utilization %v", barriers, sim.sh.Now(), d.v.ID, d.v.SMUtil)
			}
			busy = busy || d.v.SMUtil > 0
		}
	}
	opts.Shards = 4
	opts.Log = span.NewRunLog(true, false, observe)
	opts.Ctx = barrierCtx{Context: context.Background(), check: check}
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sim.devices {
		inputs[d.v.ID] = &viewInputs{batch: 64, delta: 0.5}
	}
	if w := min(runtime.GOMAXPROCS(0), len(shard.Split(len(sim.devices), opts.Shards))); w < 2 {
		t.Fatalf("%d workers step the lanes, want at least 2", w)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if barriers == 0 || !busy {
		t.Fatalf("%d barriers checked, some device busy: %v", barriers, busy)
	}
	return res
}

// TestKeptViewMatchesRebuilt: each device's kept view is, after every
// barrier, the view the device's state rebuilds — on a classed,
// faulted, bursty Mudi-more run (paused training, evictions, outages,
// failed spin-ups, failed tuning episodes, shed load) and on a plain
// Mudi run.
func TestKeptViewMatchesRebuilt(t *testing.T) {
	const seed = 11
	t.Run("mudi-more classed faulted bursty", func(t *testing.T) {
		oracle := perf.NewOracle(seed)
		m, err := core.Build(oracle, seed, core.MudiConfig{MaxTrainPerGPU: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Every 7th Configure past the initial ones fails, so some
		// placements and evictions are followed by a failed episode.
		fp := &failingPolicy{Mudi: m, skip: 8, k: 7}
		res := keptViewRun(t, Options{
			Policy:   fp,
			Oracle:   oracle,
			Seed:     seed,
			Devices:  8,
			Arrivals: smallArrivals(t, 24, seed),
			Services: classedServices(),
			Bursts:   []trace.Burst{{Start: 20, End: 80, Factor: 4}},
			Faults:   &faults.Config{DeviceMTBFSec: 120, DeviceMTTRSec: 30, MeasureErrRate: 0.2, SpinUpFailRate: 0.3},
		})
		if res.DeviceFailures == 0 || res.PausedEpisodes == 0 || res.ShedWindows == 0 || res.FailedSpinUps == 0 || res.ConfigureErrors == 0 {
			t.Fatalf("vacuous run: %d failures, %d paused episodes, %d shed windows, %d failed spin-ups, %d failed episodes",
				res.DeviceFailures, res.PausedEpisodes, res.ShedWindows, res.FailedSpinUps, res.ConfigureErrors)
		}
	})
	t.Run("mudi", func(t *testing.T) {
		oracle := perf.NewOracle(seed)
		keptViewRun(t, Options{
			Policy:   mustBuild(t, oracle, seed),
			Oracle:   oracle,
			Seed:     seed,
			Devices:  8,
			Arrivals: smallArrivals(t, 16, seed),
		})
	})
}
