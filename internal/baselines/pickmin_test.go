package baselines

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/xrand"
)

// The four loops below are verbatim copies of the device pick that
// GSLICE, gpulets, MuxFlow and Optimal each wrote out before core.PickMin
// replaced them. MuxFlow's and Optimal's oracle calls are swapped for a
// cost table so random costs (ties, +Inf, NaN, failures) reach them.

func refGSLICE(views []core.DeviceView, maxTrain int) (string, bool) {
	bestID := ""
	bestUtil := math.Inf(1)
	for _, v := range views {
		if !core.Eligible(&v, maxTrain) {
			continue
		}
		if v.SMUtil < bestUtil || (v.SMUtil == bestUtil && v.ID < bestID) {
			bestID, bestUtil = v.ID, v.SMUtil
		}
	}
	return bestID, bestID != ""
}

func refGpulets(views []core.DeviceView, maxTrain int) (string, bool) {
	bestID := ""
	bestFree := math.Inf(1)
	for _, v := range views {
		if !core.Eligible(&v, maxTrain) {
			continue
		}
		if v.FreeShare < bestFree || (v.FreeShare == bestFree && v.ID < bestID) {
			bestID, bestFree = v.ID, v.FreeShare
		}
	}
	return bestID, bestID != ""
}

func refMuxFlow(views []core.DeviceView, maxTrain int, factor func(core.DeviceView) (float64, error)) (string, bool) {
	bestID := ""
	bestF := math.Inf(1)
	for _, v := range views {
		if !core.Eligible(&v, maxTrain) {
			continue
		}
		f, err := factor(v)
		if err != nil {
			continue
		}
		if f < bestF || (f == bestF && v.ID < bestID) {
			bestID, bestF = v.ID, f
		}
	}
	return bestID, bestID != ""
}

func refOptimal(views []core.DeviceView, maxTrain int, bestOnDevice func(core.DeviceView) (core.Decision, bool)) (string, bool) {
	bestID := ""
	bestIter := math.Inf(1)
	for _, v := range views {
		if !core.Eligible(&v, maxTrain) {
			continue
		}
		dec, ok := bestOnDevice(v)
		if !ok {
			continue
		}
		if dec.TrainIterMs < bestIter || (dec.TrainIterMs == bestIter && v.ID < bestID) {
			bestID, bestIter = v.ID, dec.TrainIterMs
		}
	}
	return bestID, bestID != ""
}

// TestPickMinMatchesLoops checks core.PickMin against the four loops it
// replaced, on random view sets with tied costs, ineligible and paused
// views, skipped costs, and +Inf/NaN costs.
func TestPickMinMatchesLoops(t *testing.T) {
	rng := xrand.New(42)
	task, _ := model.TaskByName("NCF")
	// A small value pool makes ties common.
	pool := []float64{0, 0.25, 0.5, 0.5, 1, math.Inf(1), math.NaN()}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return pool[rng.Intn(len(pool))]
	}
	errSkip := errors.New("skip")
	gslice := NewGSLICE()
	gpulets := &Gpulets{}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(9)
		maxTrain := 1 + rng.Intn(3)
		views := make([]core.DeviceView, n)
		cost := make(map[string]float64, n)
		skip := make(map[string]bool, n)
		for i, id := range rng.Perm(n) {
			v := core.DeviceView{
				ID:          fmt.Sprintf("g%02d", id),
				ServiceName: "BERT",
				SMUtil:      draw(),
				FreeShare:   draw(),
				Paused:      rng.Intn(6) == 0,
			}
			if rng.Intn(6) == 0 {
				v.ServiceName = ""
			}
			for k := rng.Intn(4); k > 0; k-- {
				v.ResidentTasks = append(v.ResidentTasks, task)
			}
			views[i] = v
			cost[v.ID] = draw()
			skip[v.ID] = rng.Intn(5) == 0
		}
		costOf := func(v *core.DeviceView) (float64, bool) { return cost[v.ID], !skip[v.ID] }
		check := func(name string, wantID string, wantOK bool, gotID string, gotOK bool) {
			t.Helper()
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("trial %d %s: PickMin (%q, %v), loop (%q, %v); views %+v", trial, name, gotID, gotOK, wantID, wantOK, views)
			}
		}

		id, ok := refGSLICE(views, maxTrainPerGPU)
		gotID, gotOK := gslice.SelectDevice(task, views, nil)
		check("gslice", id, ok, gotID, gotOK)

		id, ok = refGpulets(views, maxTrainPerGPU)
		gotID, gotOK = gpulets.SelectDevice(task, views, nil)
		check("gpulets", id, ok, gotID, gotOK)

		id, ok = refMuxFlow(views, maxTrain, func(v core.DeviceView) (float64, error) {
			if skip[v.ID] {
				return 0, errSkip
			}
			return cost[v.ID], nil
		})
		gotID, gotOK = core.PickMin(views, maxTrain, costOf)
		check("muxflow", id, ok, gotID, gotOK)

		id, ok = refOptimal(views, maxTrain, func(v core.DeviceView) (core.Decision, bool) {
			return core.Decision{TrainIterMs: cost[v.ID], Feasible: !skip[v.ID]}, !skip[v.ID]
		})
		gotID, gotOK = core.PickMin(views, maxTrain, costOf)
		check("optimal", id, ok, gotID, gotOK)
	}
}

// TestBaselinePicksMatchLoops runs MuxFlow's and Optimal's own
// SelectDevice against the loop copies with the real oracle costs, on
// random clusters of catalog services with residents and paused
// devices.
func TestBaselinePicksMatchLoops(t *testing.T) {
	oracle := perf.NewOracle(11)
	rng := xrand.New(43)
	services := model.Services()
	tasks := model.Tasks()
	muxflow := NewMuxFlow(oracle)
	for trial := 0; trial < 40; trial++ {
		task := tasks[rng.Intn(len(tasks))]
		maxTrain := 1 + rng.Intn(2)
		optimal := NewOptimal(oracle, maxTrain)
		var views []core.DeviceView
		for i := rng.Intn(7); i >= 0; i-- {
			v := viewFor(services[rng.Intn(len(services))].Name)
			v.ID = fmt.Sprintf("g%d", i)
			v.QPS *= rng.Range(0.5, 3)
			v.Paused = rng.Intn(5) == 0
			if rng.Intn(3) == 0 {
				v.ResidentTasks = []model.TrainingTask{tasks[rng.Intn(len(tasks))]}
			}
			views = append(views, v)
		}
		want, wantOK := refMuxFlow(views, maxTrainPerGPU, func(v core.DeviceView) (float64, error) {
			return oracle.TrainColocFactor(v.ServiceName, 64, append(believedSlice(v.ResidentTasks, muxflow), muxflow.profileTask(task)))
		})
		if got, ok := muxflow.SelectDevice(task, views, nil); got != want || ok != wantOK {
			t.Fatalf("trial %d muxflow: (%q, %v), loop (%q, %v)", trial, got, ok, want, wantOK)
		}
		want, wantOK = refOptimal(views, maxTrain, func(v core.DeviceView) (core.Decision, bool) {
			return optimal.BestOnDevice(task, v)
		})
		if got, ok := optimal.SelectDevice(task, views, nil); got != want || ok != wantOK {
			t.Fatalf("trial %d optimal: (%q, %v), loop (%q, %v)", trial, got, ok, want, wantOK)
		}
	}
}
