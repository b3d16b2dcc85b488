package baselines

import (
	"testing"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/xrand"
)

func viewFor(svcName string, tasks ...model.TrainingTask) core.DeviceView {
	svc, _ := model.ServiceByName(svcName)
	return core.DeviceView{
		ID:            "g-" + svcName,
		ServiceName:   svcName,
		SLOms:         svc.SLOms,
		QPS:           svc.BaseQPS,
		Batch:         64,
		Delta:         0.5,
		ResidentTasks: tasks,
		FreeShare:     0.5,
	}
}

// measurer adapts the oracle for a fixed view.
type measurer struct {
	oracle *perf.Oracle
	view   core.DeviceView
	rng    *xrand.Rand
}

func (m *measurer) TrainIterMs(batch int, delta float64) (float64, error) {
	if len(m.view.ResidentTasks) == 0 {
		return 0, nil
	}
	share := 1 - delta
	if share < 0.05 {
		share = 0.05
	}
	return m.oracle.MeasureIteration(m.view.ResidentTasks[0], share, m.view.ServiceName, batch, delta, m.rng)
}

func (m *measurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	return m.oracle.MeasureLatency(m.view.ServiceName, batch, delta, m.view.ResidentTasks, m.rng)
}

func allPolicies(t *testing.T, oracle *perf.Oracle) []core.Policy {
	t.Helper()
	gp, err := NewGpulets(oracle, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return []core.Policy{
		NewGSLICE(),
		gp,
		NewMuxFlow(oracle),
		NewRandom(xrand.New(5), 1),
		NewOptimal(oracle, 1),
	}
}

func TestAllPoliciesPlaceAndConfigure(t *testing.T) {
	oracle := perf.NewOracle(1)
	task, _ := model.TaskByName("LSTM")
	views := []core.DeviceView{viewFor("BERT"), viewFor("YOLOS"), viewFor("Inception")}
	for _, p := range allPolicies(t, oracle) {
		dev, ok := p.SelectDevice(task, views, nil)
		if !ok || dev == "" {
			t.Fatalf("%s failed to place on an idle cluster", p.Name())
		}
		view := viewFor("BERT", task)
		meas := &measurer{oracle: oracle, view: view, rng: xrand.New(9)}
		dec, err := p.Configure(view, meas)
		if err != nil {
			t.Fatalf("%s configure: %v", p.Name(), err)
		}
		if dec.Feasible {
			if dec.Batch < 16 || dec.Batch > 512 {
				t.Fatalf("%s batch %d out of range", p.Name(), dec.Batch)
			}
			if dec.Delta <= 0 || dec.Delta > 1 {
				t.Fatalf("%s delta %v out of range", p.Name(), dec.Delta)
			}
		}
	}
}

func TestEligibilityShared(t *testing.T) {
	oracle := perf.NewOracle(2)
	task, _ := model.TaskByName("NCF")
	full := viewFor("BERT", task)
	paused := viewFor("YOLOS")
	paused.Paused = true
	noSvc := viewFor("GPT2")
	noSvc.ServiceName = ""
	views := []core.DeviceView{full, paused, noSvc}
	for _, p := range allPolicies(t, oracle) {
		if _, ok := p.SelectDevice(task, views, nil); ok {
			t.Fatalf("%s placed onto an ineligible cluster", p.Name())
		}
	}
}

func TestGSLICEFeedbackReactsToLoad(t *testing.T) {
	oracle := perf.NewOracle(3)
	task, _ := model.TaskByName("LSTM")
	g := NewGSLICE()
	low := viewFor("BERT", task)
	meas := &measurer{oracle: oracle, view: low, rng: xrand.New(13)}
	decLow, err := g.Configure(low, meas)
	if err != nil {
		t.Fatal(err)
	}
	high := low
	high.QPS *= 3
	measHigh := &measurer{oracle: oracle, view: high, rng: xrand.New(13)}
	decHigh, err := g.Configure(high, measHigh)
	if err != nil {
		t.Fatal(err)
	}
	if decHigh.Feasible && decLow.Feasible && decHigh.Delta < decLow.Delta {
		t.Fatalf("GSLICE shrank the partition under 3x load: %v → %v", decLow.Delta, decHigh.Delta)
	}
	if _, err := g.Configure(low, nil); err == nil {
		t.Fatal("GSLICE without measurer accepted")
	}
}

func TestGpuletsUsesDiscreteSizes(t *testing.T) {
	oracle := perf.NewOracle(4)
	g, err := NewGpulets(oracle, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	task, _ := model.TaskByName("VGG16")
	dec, err := g.Configure(viewFor("ResNet50", task), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("gpulets infeasible at nominal load")
	}
	found := false
	for _, size := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		if dec.Delta == size {
			found = true
		}
	}
	if !found {
		t.Fatalf("delta %v is not a gpulet size", dec.Delta)
	}
	bogus := viewFor("ResNet50")
	bogus.ServiceName = "nope"
	if _, err := g.Configure(bogus, nil); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestMuxFlowBelievesMeanForUnseen(t *testing.T) {
	oracle := perf.NewOracle(5)
	m := NewMuxFlow(oracle)
	seen, _ := model.TaskByName("VGG16")
	unseen, _ := model.TaskByName("ResNet18")
	if got := m.profileTask(seen); got.Name != "VGG16" {
		t.Fatalf("observed task replaced by %q", got.Name)
	}
	if got := m.profileTask(unseen); got.Name != "muxflow-mean" {
		t.Fatalf("unseen task believed as %q", got.Name)
	}
}

func TestRandomPlacementCoversDevices(t *testing.T) {
	oracle := perf.NewOracle(6)
	_ = oracle
	r := NewRandom(xrand.New(7), 1)
	task, _ := model.TaskByName("NCF")
	views := []core.DeviceView{viewFor("BERT"), viewFor("YOLOS"), viewFor("GPT2")}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		dev, ok := r.SelectDevice(task, views, nil)
		if !ok {
			t.Fatal("random failed to place")
		}
		seen[dev] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random covered %d devices, want 3", len(seen))
	}
	dec, err := r.Configure(viewFor("BERT", task), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Delta != 0.5 {
		t.Fatalf("even split delta %v, want 0.5", dec.Delta)
	}
}

func TestOptimalPicksTrueBest(t *testing.T) {
	oracle := perf.NewOracle(7)
	o := NewOptimal(oracle, 1)
	task, _ := model.TaskByName("SqueezeNet")
	views := []core.DeviceView{viewFor("GPT2"), viewFor("YOLOS"), viewFor("BERT")}
	dev, ok := o.SelectDevice(task, views, nil)
	if !ok {
		t.Fatal("optimal failed to place")
	}
	// Verify it really is the iteration-minimizing device.
	bestIter := -1.0
	bestDev := ""
	for _, v := range views {
		dec, ok := o.BestOnDevice(task, v)
		if !ok {
			continue
		}
		if bestIter < 0 || dec.TrainIterMs < bestIter {
			bestIter, bestDev = dec.TrainIterMs, v.ID
		}
	}
	if dev != bestDev {
		t.Fatalf("optimal chose %s, exhaustive check says %s", dev, bestDev)
	}
	dec, err := o.Configure(viewFor("BERT", task), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("optimal infeasible at nominal load")
	}
}

func TestOptimalInfeasibleUnderCrush(t *testing.T) {
	oracle := perf.NewOracle(8)
	o := NewOptimal(oracle, 1)
	task, _ := model.TaskByName("YOLOv5")
	view := viewFor("GPT2", task)
	view.QPS *= 50
	dec, err := o.Configure(view, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Feasible {
		t.Fatal("50x load reported feasible")
	}
}
