package cluster

import (
	"reflect"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/sched"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// TestFairShareChargesCohorts: on a cohort trace the fair-share user is
// the cohort, so a finished job's GPU-seconds must count against its
// cohort. One device holds one task at a time: cohort a's first job
// runs while a's second job and then b's job queue behind it. When it
// finishes, a has used the device and b has not, so b's job goes next
// although a's was submitted first.
func TestFairShareChargesCohorts(t *testing.T) {
	task := model.ObservedTasks()[0]
	arrivals := []trace.TaskArrival{
		{ID: 0, At: 0, Task: task, Iters: 200, GPUsReq: 1, Cohort: "a"},
		{ID: 1, At: 1, Task: task, Iters: 200, GPUsReq: 1, Cohort: "a"},
		{ID: 2, At: 2, Task: task, Iters: 200, GPUsReq: 1, Cohort: "b"},
	}
	sim, err := New(Options{
		Policy:      baselines.NewRandom(xrand.New(1), 1),
		Oracle:      perf.NewOracle(1),
		Seed:        1,
		Devices:     1,
		Arrivals:    arrivals,
		QueuePolicy: sched.FairShare{},
		Obs:         obs.NewSink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", res.Completed, len(arrivals))
	}
	var order []int
	for _, e := range res.Events {
		if e.Type == obs.EventTaskPlaced {
			order = append(order, int(e.Value))
		}
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("placement order %v, want %v (cohort b's job before a's second)", order, want)
	}
}
