package cluster

import (
	"math"
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
// batch change, a Δ rescale, a completion, and a failure followed by a
// redeploy — and after each step runs a control window and checks the
// device's memoized curve bit for bit against a fresh oracle's curve
// for the executing residents, and each executing resident's memoized
// iteration time against the fresh oracle's. A requeue onto a second
// device, next to another service, is checked the same way.
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
	fresh := perf.NewOracle(seed)
	// checkIters compares every executing resident's iteration memo
	// with the fresh oracle at the device's current configuration.
	checkIters := func(name string, d *deviceState, wantActive int) {
		t.Helper()
		share, n := d.trainShare(), 0
		for _, ts := range d.training {
			if ts.done || ts.paused {
				continue
			}
			n++
			m := ts.iter
			want, wantErr := fresh.TrueIteration(ts.task, share, d.svc.info.Name, d.svc.batch, d.svc.delta)
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
		want, wantErr := fresh.TrainColocCurve(d.svc.info.Name, d.svc.batch, d.activeScratch())
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
	if d.svc.delta != 0.75 {
		t.Fatalf("rescale: Δ %v, want 0.75", d.svc.delta)
	}
	step("Δ rescale", 2)
	first := d.training[0]
	first.done = true
	step("first task finished", 1)
	// The completion's retune moves Δ so that the remaining task keeps
	// its train share (0.25/2 = 0.125/1): only Δ is new in its key.
	pol.dec = core.Decision{Batch: 128, Delta: 0.875, Feasible: true}
	s.complete(now, d, first)
	step("first task released", 1)
	s.failDevice(now, d)
	pol.dec = core.Decision{Batch: 32, Delta: 0.4, Feasible: true}
	s.recoverDevice(now, d)
	if d.svc.batch != 32 || len(d.training) != 1 || d.training[0].task.Name != tasks[1].Name {
		t.Fatalf("redeploy: batch %d, residents %d", d.svc.batch, len(d.training))
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
	if d0.residentCount() != 0 || d1.residentCount() != 1 {
		t.Fatalf("requeue: %d residents on the first device, %d on the second", d0.residentCount(), d1.residentCount())
	}
	s2.deviceWindow(now+1, &shard.Lane{}, d1)
	checkIters("requeued onto another device", d1, 1)
}
