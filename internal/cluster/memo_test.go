package cluster

import (
	"math"
	"slices"
	"testing"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/shard"
	"mudi/internal/trace"
)

// scriptedPolicy places every task on the first candidate and answers
// every Configure with dec, so a test decides each configuration.
type scriptedPolicy struct{ dec core.Decision }

func (*scriptedPolicy) Name() string { return "scripted" }

func (*scriptedPolicy) SelectDevice(_ model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	return views[0].ID, true
}

func (p *scriptedPolicy) Configure(core.DeviceView, core.Measurer) (core.Decision, error) {
	return p.dec, nil
}

// TestWindowCurveMemoMatchesOracle steps one device through every
// change that moves its latency curve or a resident's iteration time —
// placements (which also split the train share), a pause, a resume, a
// batch change, a Δ rescale, a finishing window and its completion, and
// a failure followed by a redeploy — and after each step runs a control
// window and checks the device's memoized curve bit for bit against a
// fresh oracle's curve for the executing residents, and each executing
// resident's memoized iteration time against the fresh oracle's. A
// requeue onto a second device, next to another service, is checked the
// same way.
func TestWindowCurveMemoMatchesOracle(t *testing.T) {
	const seed = 5
	tasks := model.Tasks()
	arrivals := []trace.TaskArrival{
		{ID: 0, At: 1, Task: tasks[0], Iters: 1e6, GPUsReq: 1},
		{ID: 1, At: 2, Task: tasks[1], Iters: 1e6, GPUsReq: 1},
	}
	pol := &scriptedPolicy{dec: core.Decision{Batch: 64, Delta: 0.5, Feasible: true}}
	s, err := New(Options{Policy: pol, Oracle: perf.NewOracle(seed), Seed: seed, Devices: 1, Arrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	d := s.devices[0]
	deployed(t, s)
	fresh := perf.NewOracle(seed)
	// checkIters compares every executing resident's iteration memo
	// with the fresh oracle at the device's current configuration.
	checkIters := func(name string, d *deviceState, wantActive int) {
		t.Helper()
		share, n := d.trainShare(), 0
		for _, ts := range d.training {
			if ts.paused {
				continue
			}
			n++
			m := ts.iter
			want, wantErr := fresh.TrueIteration(ts.task, share, d.svc.info.Name, d.v.Batch, d.v.Delta)
			if !m.ok || wantErr != nil || m.err != nil || math.Float64bits(m.ms) != math.Float64bits(want) {
				t.Fatalf("%s: %s's memo iteration %v (ok %v, err %v), oracle %v (err %v)",
					name, ts.task.Name, m.ms, m.ok, m.err, want, wantErr)
			}
		}
		if n != wantActive {
			t.Fatalf("%s: %d executing residents, want %d", name, n, wantActive)
		}
	}
	now := 0.0
	step := func(name string, wantActive int) {
		t.Helper()
		now++
		s.deviceWindow(now, &shard.Lane{}, d) // its mail is never applied
		if n := len(d.curve.active); n != wantActive {
			t.Fatalf("%s: %d executing residents in the memo, want %d", name, n, wantActive)
		}
		checkIters(name, d, wantActive)
		want, wantErr := fresh.TrainColocCurve(d.svc.info.Name, d.v.Batch, d.activeScratch())
		got := d.curve.fn
		if d.curve.err != wantErr ||
			math.Float64bits(got.K1) != math.Float64bits(want.K1) ||
			math.Float64bits(got.K2) != math.Float64bits(want.K2) ||
			math.Float64bits(got.Cutoff) != math.Float64bits(want.Cutoff) ||
			math.Float64bits(got.L0) != math.Float64bits(want.L0) {
			t.Fatalf("%s: memo curve %+v (err %v), oracle %+v (err %v)", name, got, d.curve.err, want, wantErr)
		}
	}
	configure := func(dec core.Decision) {
		t.Helper()
		pol.dec = dec
		if err := s.configure(now, d, "test"); err != nil {
			t.Fatal(err)
		}
	}

	step("solo", 0)
	s.onArrival(now, arrivals[0])
	step("first task added", 1)
	s.onArrival(now, arrivals[1])
	step("second task added", 2)
	configure(core.Decision{Batch: 64, Feasible: false})
	step("paused", 0)
	configure(core.Decision{Batch: 64, Delta: 0.5, Feasible: true})
	step("resumed", 2)
	configure(core.Decision{Batch: 128, Delta: 0.5, Feasible: true})
	step("batch change", 2)
	configure(core.Decision{Batch: 128, Delta: 0.75, Feasible: true})
	if d.v.Delta != 0.75 {
		t.Fatalf("rescale: Δ %v, want 0.75", d.v.Delta)
	}
	step("Δ rescale", 2)
	// The first task finishes in a real window. Its completion's retune
	// moves Δ so that the remaining task keeps its train share
	// (0.25/2 = 0.125/1): only Δ is new in its key.
	pol.dec = core.Decision{Batch: 128, Delta: 0.875, Feasible: true}
	now++
	finishFirst(t, s, d, now)
	step("first task finished", 1)
	s.failDevice(now, d)
	pol.dec = core.Decision{Batch: 32, Delta: 0.4, Feasible: true}
	s.recoverDevice(now, d)
	if d.v.Batch != 32 || len(d.training) != 1 || d.training[0].task.Name != tasks[1].Name {
		t.Fatalf("redeploy: batch %d, residents %d", d.v.Batch, len(d.training))
	}
	step("redeployed after a failure", 1)

	// A requeue checkpoints the task off the first device and re-places
	// it, as a fresh taskState, on the second, next to another service.
	s2, err := New(Options{Policy: pol, Oracle: perf.NewOracle(seed), Seed: seed, Devices: 2, Arrivals: arrivals[:1]})
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := s2.devices[0], s2.devices[1]
	if d0.svc.info.Name == d1.svc.info.Name {
		t.Fatalf("both devices serve %s", d0.svc.info.Name)
	}
	s2.onArrival(now, arrivals[0])
	s2.deviceWindow(now, &shard.Lane{}, d0)
	checkIters("before the requeue", d0, 1)
	s2.requeue(now, d0, d0.training[0])
	if len(d0.training) != 0 || len(d1.training) != 1 {
		t.Fatalf("requeue: %d residents on the first device, %d on the second", len(d0.training), len(d1.training))
	}
	s2.deviceWindow(now+1, &shard.Lane{}, d1)
	checkIters("requeued onto another device", d1, 1)
}

// finishFirst makes d's first resident finish in one real window at
// now. The window must take the task off d.training and the view's
// residents at once, but keep its memory; its completion mail (run
// here as the barrier would) must then count it and free the memory.
func finishFirst(t *testing.T, s *Sim, d *deviceState, now float64) {
	t.Helper()
	first, n := d.training[0], len(d.training)
	first.iters = 1 // done within the window
	completed := s.res.Completed
	s.deviceWindow(now, &shard.Lane{}, d) // its mail is never applied
	if len(d.training) != n-1 || slices.Contains(d.training, first) {
		t.Fatalf("finishing window: %d of %d residents left, the finished one among them: %v",
			len(d.training), n, slices.Contains(d.training, first))
	}
	if got := d.v.ResidentTasks; len(got) != n-1 || slices.Contains(got, first.task) {
		t.Fatalf("finishing window: view residents %v still hold %s", got, first.task.Name)
	}
	if _, err := d.pool.SwappedOutMB(first.allocID); err != nil {
		t.Fatalf("finishing window freed the task's memory before its completion: %v", err)
	}
	s.complete(first.finishAt, d, first)
	if s.res.Completed != completed+1 {
		t.Fatalf("completion: Completed %d, want %d", s.res.Completed, completed+1)
	}
	if _, err := d.pool.SwappedOutMB(first.allocID); err == nil {
		t.Fatal("completion kept the task's memory allocated")
	}
}

// deployed deploys every device of s as Run does before its first
// window, and fails on a deploy error or a stopped run. A test that
// drives a Sim's steps by hand calls it first: a failure frees the
// service's pinned memory, which only a deploy allocates.
func deployed(t *testing.T, s *Sim) {
	t.Helper()
	for _, d := range s.devices {
		if err := s.deploy(0, d, "initial"); err != nil || s.err != nil {
			t.Fatalf("deploying %s: %v (run error %v)", d.v.ID, err, s.err)
		}
	}
}

// TestResidentSnapshotTracksResidents drives one device through every
// change to its residents — two placements, a finishing window and its
// completion, a pause eviction's requeue, and a failure and recovery —
// reading its view after each. The view's residents must be a copy of
// d.training's tasks (never nil), and a snapshot read earlier, as a
// policy may retain it, must still hold what it held then.
func TestResidentSnapshotTracksResidents(t *testing.T) {
	const seed = 5
	tasks := model.Tasks()
	arrivals := []trace.TaskArrival{
		{ID: 0, At: 1, Task: tasks[0], Iters: 1e6, GPUsReq: 1},
		{ID: 1, At: 2, Task: tasks[1], Iters: 1e6, GPUsReq: 1},
	}
	run := core.Decision{Batch: 64, Delta: 0.5, Feasible: true}
	pol := &scriptedPolicy{dec: run}
	s, err := New(Options{Policy: pol, Oracle: perf.NewOracle(seed), Seed: seed, Devices: 1, Arrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	d := s.devices[0]
	deployed(t, s)
	now := 0.0
	var held, heldWas []model.TrainingTask
	check := func(name string, want int) {
		t.Helper()
		fresh := []model.TrainingTask{}
		for _, ts := range d.training {
			fresh = append(fresh, ts.task)
		}
		got := d.v.ResidentTasks
		if got == nil || len(fresh) != want || !slices.Equal(got, fresh) {
			t.Fatalf("%s: view residents %v, d.training holds %v (want %d)", name, got, fresh, want)
		}
		if !slices.Equal(held, heldWas) {
			t.Fatalf("%s: an earlier snapshot changed from %v to %v", name, heldWas, held)
		}
		held, heldWas = got, slices.Clone(got)
	}

	check("no residents", 0)
	s.onArrival(now, arrivals[0])
	check("first placement", 1)
	s.onArrival(now, arrivals[1])
	check("second placement", 2)
	now++
	finishFirst(t, s, d, now)
	check("completion", 1)
	pol.dec = core.Decision{Batch: 64, Feasible: false}
	if err := s.configure(now, d, "test"); err != nil {
		t.Fatal(err)
	}
	check("paused", 1)
	pol.dec = run
	paused := d.training[0]
	s.requeue(now, d, paused) // re-placed here: the only device
	if len(d.training) != 1 || d.training[0] == paused {
		t.Fatal("the requeue did not re-place the task")
	}
	check("pause eviction requeued", 1)
	s.failDevice(now, d)
	check("failure", 0)
	s.recoverDevice(now, d)
	check("recovery", 1)
}
