package core

import (
	"testing"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/xrand"
)

// mustBuild is Build, failing the test on an error.
func mustBuild(t *testing.T, oracle *perf.Oracle, seed uint64, maxTrain int) *Mudi {
	t.Helper()
	m, err := Build(oracle, seed, MudiConfig{MaxTrainPerGPU: maxTrain})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleMeasurer adapts the oracle for one synthetic device view.
type oracleMeasurer struct {
	oracle *perf.Oracle
	view   DeviceView
	rng    *xrand.Rand
}

func (m *oracleMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	share := 1 - delta
	if share < 0.05 {
		share = 0.05
	}
	if len(m.view.ResidentTasks) == 0 {
		return 0, nil
	}
	return m.oracle.MeasureIteration(m.view.ResidentTasks[0], share, m.view.ServiceName, batch, delta, m.rng)
}

func (m *oracleMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	return m.oracle.MeasureLatency(m.view.ServiceName, batch, delta, m.view.ResidentTasks, m.rng)
}

func viewFor(svcName string, tasks ...model.TrainingTask) DeviceView {
	svc, _ := model.ServiceByName(svcName)
	return DeviceView{
		ID:            "g0",
		ServiceName:   svcName,
		SLOms:         svc.SLOms,
		QPS:           svc.BaseQPS,
		Batch:         64,
		Delta:         0.5,
		ResidentTasks: tasks,
		FreeShare:     0.5,
	}
}

func TestSelectDevicePrefersLowInterference(t *testing.T) {
	oracle := perf.NewOracle(1)
	m := mustBuild(t, oracle, 1, 1)
	task, _ := model.TaskByName("YOLOv5") // heavy architecture
	// GPT2 is highly interference-sensitive; YOLOS is loose and sturdy.
	views := []DeviceView{viewFor("GPT2"), viewFor("YOLOS")}
	views[0].ID, views[1].ID = "gpt2-dev", "yolos-dev"
	dev, ok := m.SelectDevice(task, views, nil)
	if !ok {
		t.Fatal("no device selected")
	}
	if dev != "yolos-dev" {
		t.Fatalf("heavy task placed on %s, want the sturdier yolos-dev", dev)
	}
}

func TestSelectDeviceHonorsCaps(t *testing.T) {
	oracle := perf.NewOracle(2)
	m := mustBuild(t, oracle, 2, 1)
	task, _ := model.TaskByName("NCF")
	occupied := viewFor("BERT", task)
	if _, ok := m.SelectDevice(task, []DeviceView{occupied}, nil); ok {
		t.Fatal("placed onto a full device (maxTrain=1)")
	}
	paused := viewFor("BERT")
	paused.Paused = true
	if _, ok := m.SelectDevice(task, []DeviceView{paused}, nil); ok {
		t.Fatal("placed onto a paused device")
	}
	noSvc := viewFor("BERT")
	noSvc.ServiceName = ""
	if _, ok := m.SelectDevice(task, []DeviceView{noSvc}, nil); ok {
		t.Fatal("placed onto a device without a service")
	}
}

func TestMudiMoreAllowsThree(t *testing.T) {
	oracle := perf.NewOracle(3)
	m := mustBuild(t, oracle, 3, 3)
	task, _ := model.TaskByName("NCF")
	two := viewFor("YOLOS", task, task)
	if _, ok := m.SelectDevice(task, []DeviceView{two}, nil); !ok {
		t.Fatal("mudi-more rejected a 2-resident device")
	}
	three := viewFor("YOLOS", task, task, task)
	if _, ok := m.SelectDevice(task, []DeviceView{three}, nil); ok {
		t.Fatal("mudi-more accepted a 3-resident device")
	}
}

func TestConfigureMeetsSLOBudget(t *testing.T) {
	oracle := perf.NewOracle(4)
	m := mustBuild(t, oracle, 4, 1)
	task, _ := model.TaskByName("LSTM")
	view := viewFor("BERT", task)
	meas := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(44)}
	dec, err := m.Configure(view, meas)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("nominal load infeasible")
	}
	truth, err := oracle.TrueLatency(view.ServiceName, dec.Batch, dec.Delta, view.ResidentTasks)
	if err != nil {
		t.Fatal(err)
	}
	budget := view.SLOms * float64(dec.Batch) / view.QPS
	if truth > budget {
		t.Fatalf("true latency %v exceeds budget %v at the decision", truth, budget)
	}
	if dec.Delta > 0.9+1e-9 {
		t.Fatalf("delta %v leaves no training share", dec.Delta)
	}
}

func TestConfigureRequiresService(t *testing.T) {
	oracle := perf.NewOracle(5)
	m := mustBuild(t, oracle, 5, 1)
	view := viewFor("BERT")
	view.ServiceName = ""
	if _, err := m.Configure(view, nil); err == nil {
		t.Fatal("configure without service accepted")
	}
}

func TestObserveColocationLearnsAndCaches(t *testing.T) {
	oracle := perf.NewOracle(6)
	m := mustBuild(t, oracle, 6, 1)
	task, _ := model.TaskByName("ResNet18") // unseen in offline profiles
	view := viewFor("RoBERTa", task)
	meas := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(66)}
	before := m.Predictor().Samples("RoBERTa")
	m.ObserveColocation(view, meas)
	after := m.Predictor().Samples("RoBERTa")
	if after <= before {
		t.Fatalf("no online samples ingested: %d → %d", before, after)
	}
	// A second observation of the same co-location is a no-op.
	m.ObserveColocation(view, meas)
	if m.Predictor().Samples("RoBERTa") != after {
		t.Fatal("duplicate co-location re-profiled")
	}
	// Degenerate views are ignored.
	m.ObserveColocation(viewFor("RoBERTa"), meas)
	m.ObserveColocation(DeviceView{}, meas)
}

func TestBOIterationsTracked(t *testing.T) {
	oracle := perf.NewOracle(7)
	m := mustBuild(t, oracle, 7, 1)
	task, _ := model.TaskByName("NCF")
	view := viewFor("Inception", task)
	meas := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(77)}
	dec, err := m.Configure(view, meas)
	if err != nil {
		t.Fatal(err)
	}
	if dec.BOIterations < 1 || dec.BOIterations > 25 {
		t.Fatalf("BO iterations %d outside [1,25]", dec.BOIterations)
	}
	// Without faults every probe's measurement succeeds, so each BO
	// iteration is one probe.
	if len(dec.Probes) != dec.BOIterations {
		t.Fatalf("%d probes for %d BO iterations", len(dec.Probes), dec.BOIterations)
	}
}

func TestNameAndDefaults(t *testing.T) {
	m := newMudi(predictor.New(1), MudiConfig{})
	if m.Name() != "mudi" {
		t.Fatalf("name %q", m.Name())
	}
	if m.cfg.MaxTrainPerGPU != 1 {
		t.Fatalf("default max train %d", m.cfg.MaxTrainPerGPU)
	}
}

func TestConfigureUntrainedFallsBackConservative(t *testing.T) {
	// An untrained Mudi must still produce a safe decision from the
	// conservative default curve rather than violate the SLO.
	m := newMudi(predictor.New(9), MudiConfig{})
	view := viewFor("BERT")
	dec, err := m.Configure(view, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Feasible && dec.Delta <= 0 {
		t.Fatalf("bad fallback decision %+v", dec)
	}
}
