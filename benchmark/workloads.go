package main

import (
	"fmt"
	"math"

	"mudi"
)

// testbedSeed fixes the simulated testbed and the offline pipeline that
// NewSystem runs. The testbed is part of the system under test, not its
// input: only the workload (task arrivals, fault schedules) follows the
// -seed flag, so set-up does the same work in every run.
const testbedSeed = 1

// size scales a workload. full is what the benchmark measures; the
// smoke test runs the same workloads at small.
type size int

const (
	full size = iota
	small
)

// sim is one Simulate call of a repetition.
type sim struct {
	opts  mudi.SimOptions
	tasks int // submitted tasks; every one must complete
}

// workload is one set of inputs. build returns the simulations one
// repetition runs, in order, against the fresh System it is given.
type workload struct {
	name  string
	why   string
	build func(sys *mudi.System, seed uint64, sz size) ([]sim, error)
}

var workloads = []workload{
	{
		name:  "paper-12gpu",
		why:   "the paper's 12-GPU cluster under Mudi and three baselines: Mudi's online learner is the largest layer",
		build: buildPaper,
	},
	{
		name:  "fleet-1k",
		why:   "1024 devices and a burst of 64 arrivals: placement scores every device per call, so placement is most of the host time",
		build: buildFleet,
	},
	{
		name:  "observed-burst-1k",
		why:   "1024 devices with bursts, SLO classes, faults and every observation sink on: the per-device window path dominates",
		build: buildObserved,
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// buildPaper is the paper's physical cluster: a Philly trace replayed
// on 12 devices by Mudi and three baselines. Mudi runs first, so the
// baselines never see its learner state. A thousand tasks let the
// learner meet most co-locations whatever the seed, which keeps the
// host work per seed steady.
func buildPaper(sys *mudi.System, seed uint64, sz size) ([]sim, error) {
	tasks := 1000
	if sz == small {
		tasks = 12
	}
	arrivals, err := mudi.PhillyArrivals(tasks, 12, 0.002, seed)
	if err != nil {
		return nil, err
	}
	var sims []sim
	for _, id := range []mudi.BaselineID{"", mudi.BaselineGSLICE, mudi.BaselineGpulets, mudi.BaselineMuxFlow} {
		var p mudi.Policy
		if id != "" {
			if p, err = sys.BaselinePolicy(id); err != nil {
				return nil, err
			}
		}
		sims = append(sims, sim{
			opts:  mudi.SimOptions{Policy: p, Devices: 12, Arrivals: arrivals, Shards: 1},
			tasks: len(arrivals),
		})
	}
	return sims, nil
}

// buildFleet is BenchmarkScale's arrival shape (a gap of 8 s / devices)
// at a fleet size where one repetition takes seconds. Every task arrives
// within the first second and is sized to run 10 s alone, so placement
// is most of the work.
func buildFleet(_ *mudi.System, seed uint64, sz size) ([]sim, error) {
	devices, tasks := 1024, 64
	if sz == small {
		devices, tasks = 64, 8
	}
	arrivals, err := mudi.PhillyArrivals(tasks, 8.0/float64(devices), 1, seed)
	if err != nil {
		return nil, err
	}
	soloSeconds(arrivals, 10)
	return []sim{{
		opts:  mudi.SimOptions{Devices: devices, Arrivals: withAnchor(arrivals, 100), Shards: 2},
		tasks: len(arrivals) + 1,
	}}, nil
}

// buildObserved is a long, disturbed run with every observation sink
// on: 3x bursts of 25 s every 90 s, a six-class SLO mix, device
// outages, measurement errors, failed shadow spin-ups and a degraded
// PCIe link. The fault schedule is drawn from the testbed seed, like
// the testbed itself. Arrivals are stretched to end at 1000 s and every
// task is sized to run 30 s alone.
func buildObserved(_ *mudi.System, seed uint64, sz size) ([]sim, error) {
	devices, tasks := 1024, 32
	if sz == small {
		devices, tasks = 64, 4
	}
	arrivals, err := mudi.PhillyArrivals(tasks, 1000.0/float64(tasks), 1, seed)
	if err != nil {
		return nil, err
	}
	stretch := 1000 / arrivals[len(arrivals)-1].At
	for i := range arrivals {
		arrivals[i].At *= stretch
	}
	soloSeconds(arrivals, 30)
	var bursts []mudi.Burst
	for start := 90.0; start < 20000; start += 90 {
		bursts = append(bursts, mudi.Burst{Start: start, End: start + 25, Factor: 3})
	}
	return []sim{{
		opts: mudi.SimOptions{
			Devices:  devices,
			Arrivals: withAnchor(arrivals, 800),
			Shards:   2,
			Bursts:   bursts,
			ClassMix: []mudi.SLOClass{
				mudi.SLOCritical, mudi.SLOStandard, mudi.SLOSheddable,
				mudi.SLOBatch, mudi.SLOBackground, mudi.SLOStandard,
			},
			Faults: &mudi.FaultConfig{
				Seed:              testbedSeed,
				DeviceMTBFSec:     3000,
				DeviceMTTRSec:     60,
				MeasureErrRate:    0.05,
				SpinUpFailRate:    0.05,
				PCIeDegradeFactor: 4,
			},
			Trace:     true,
			Timelines: true,
			// The runner installs a counting Observer on every repetition.
			Observe: true,
		},
		tasks: len(arrivals) + 1,
	}}, nil
}

// withAnchor returns the arrivals behind one fixed task that arrives at
// time 0 and runs sec seconds alone. It lands on the same device
// whatever the seed and outlasts every other task, so the makespan, and
// with it the number of device-windows, is the same for every seed; the
// per-device-window metrics then compare like with like.
func withAnchor(arrivals []mudi.TaskArrival, sec float64) []mudi.TaskArrival {
	a := mudi.TaskArrival{ID: len(arrivals), Task: mudi.Tasks()[0], GPUsReq: 1}
	out := append([]mudi.TaskArrival{a}, arrivals...)
	soloSeconds(out[:1], sec)
	return out
}

// soloSeconds sets every task's length to the iterations it would run
// in sec seconds alone on a GPU.
func soloSeconds(arrivals []mudi.TaskArrival, sec float64) {
	for i := range arrivals {
		arrivals[i].Iters = int(math.Ceil(sec * 1000 / arrivals[i].Task.BaseIterMs))
	}
}
