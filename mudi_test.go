package mudi

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCatalogAccessors(t *testing.T) {
	if len(Services()) != 6 {
		t.Fatalf("services %d", len(Services()))
	}
	if len(Tasks()) != 9 {
		t.Fatalf("tasks %d", len(Tasks()))
	}
	if len(BatchSizes()) != 6 {
		t.Fatalf("batch sizes %d", len(BatchSizes()))
	}
	names := SortedServiceNames()
	if len(names) != 6 || names[0] != "BERT" {
		t.Fatalf("sorted names %v", names)
	}
}

func TestSystemSimulate(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(SimOptions{Devices: 6, Tasks: 8, MeanGapSec: 5, IterScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d/8", res.Completed)
	}
	if res.MeanSLOViolation() > 0.1 {
		t.Fatalf("violation %v", res.MeanSLOViolation())
	}
}

// TestSystemsLearnIndependently: two systems built from one config
// share the offline phase's output, but learning in one leaves the
// other's learner where training left it.
func TestSystemsLearnIndependently(t *testing.T) {
	a, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trained := b.Learner()
	if !reflect.DeepEqual(a.Learner(), trained) {
		t.Fatal("two systems with one config start from different learners")
	}
	if _, err := a.Simulate(SimOptions{Devices: 6, Tasks: 8, MeanGapSec: 5, IterScale: 0.001}); err != nil {
		t.Fatal(err)
	}
	if a.Learner().Colocations == 0 || reflect.DeepEqual(a.Learner(), trained) {
		t.Fatalf("the simulation taught system a nothing: %+v", a.Learner())
	}
	if got := b.Learner(); !reflect.DeepEqual(got, trained) {
		t.Errorf("simulating system a moved system b's learner: %+v, want %+v", got, trained)
	}
}

// TestOnlineLearnerSelectsOnlyOffline guards the learner's work: the
// offline phase selects a model family for each of every catalog
// service's four targets, and a long Mudi run that learns many
// co-locations only refits those families. At 1.5× sample growth a
// reselecting learner would run 40 selections here, not 24.
func TestOnlineLearnerSelectsOnlyOffline(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(Services())
	if got := sys.Learner().Selections; got != want {
		t.Fatalf("offline phase ran %d selections, want %d", got, want)
	}
	if _, err := sys.Simulate(SimOptions{Devices: 12, Tasks: 300, MeanGapSec: 8, IterScale: 0.002}); err != nil {
		t.Fatal(err)
	}
	ls := sys.Learner()
	if ls.Colocations == 0 || ls.Selections != want || ls.Refits <= ls.Selections {
		t.Fatalf("%d co-locations learned with %d refits and %d selections; want online refits and only the %d offline selections",
			ls.Colocations, ls.Refits, ls.Selections, want)
	}
}

func TestSystemBaselines(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gslice", "gpulets", "muxflow", "random", "optimal"} {
		p, err := sys.BaselinePolicy(BaselineID(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s has no name", name)
		}
	}
	if _, err := sys.BaselinePolicy("bogus"); err == nil {
		t.Fatal("bogus baseline accepted")
	}
}

func TestSimulateWithBaselineAndQueuePolicy(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gslice, err := sys.BaselinePolicy(BaselineGSLICE)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(SimOptions{
		Policy: gslice, Devices: 6, Tasks: 6, MeanGapSec: 5, IterScale: 0.001,
		Queue: QueueSJF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "gslice" {
		t.Fatalf("policy %q", res.Policy)
	}
	if _, err := sys.Simulate(SimOptions{Queue: "bogus"}); err == nil {
		t.Fatal("bogus queue policy accepted")
	}
}

// TestExplicitArrivalsAndTrace runs explicit arrivals under a burst
// and checks the per-window device view in the timelines: every service
// with a device records batch, GPU share, swapped memory and pause
// state once per measured window, as its latency series does.
func TestExplicitArrivalsAndTrace(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := PhillyArrivals(5, 5, 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	const devices = 4
	res, err := sys.Simulate(SimOptions{
		Devices: devices, Arrivals: arrivals, Timelines: true,
		Bursts: []Burst{{Start: 30, End: 60, Factor: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[[2]string]int)
	for _, tl := range res.Timelines {
		samples[[2]string{tl.Kind, tl.Scope}] = len(tl.Levels[0].Buckets)
	}
	// Devices take the catalog's services round-robin.
	for _, svc := range Services()[:devices] {
		want := samples[[2]string{"service_p99_ms", svc.Name}]
		if want == 0 {
			t.Fatalf("%s: no service_p99_ms samples", svc.Name)
		}
		for _, kind := range []string{"service_batch", "service_gpu_share", "service_swapped_mb", "service_paused"} {
			if got := samples[[2]string{kind, svc.Name}]; got != want {
				t.Errorf("%s %s: %d samples, want %d (as service_p99_ms)", svc.Name, kind, got, want)
			}
		}
	}
}

func TestCustomService(t *testing.T) {
	custom := InferenceService{
		Name: "MyNet", Domain: "Custom", Dataset: "private",
		ParamsM: 10, SLOms: 250, BaseQPS: 150,
		WeightMB: 80, ActivationMBPerItem: 20,
	}
	sys, err := NewSystem(SystemConfig{Seed: 5, ExtraServices: []InferenceService{custom}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(SimOptions{Devices: 7, Tasks: 7, MeanGapSec: 5, IterScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.SLOViolation["MyNet"]; !ok {
		t.Fatal("custom service not simulated")
	}
}

// TestNewSystemRejectsBadExtraService: an extra service without a
// finite, positive BaseQPS and SLOms is rejected up front, naming its
// index, instead of simulating with a meaningless budget.
func TestNewSystemRejectsBadExtraService(t *testing.T) {
	for _, tc := range []struct {
		name     string
		qps, slo float64
	}{
		{"qps-nan", math.NaN(), 250},
		{"slo-nan", 150, math.NaN()},
		{"qps-zero", 0, 250},
		{"slo-zero", 150, 0},
		{"qps-negative", -1, 250},
		{"slo-inf", 150, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := InferenceService{Name: "Bad", Domain: "Custom", ParamsM: 10, SLOms: tc.slo, BaseQPS: tc.qps, WeightMB: 80, ActivationMBPerItem: 20}
			good := InferenceService{Name: "Good", Domain: "Custom", ParamsM: 10, SLOms: 250, BaseQPS: 150, WeightMB: 80, ActivationMBPerItem: 20}
			_, err := NewSystem(SystemConfig{Seed: 5, ExtraServices: []InferenceService{good, bad}})
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Field != "ExtraServices" || oe.Value != 1 {
				t.Fatalf("err = %v, want *OptionError{Field: ExtraServices, Value: 1}", err)
			}
		})
	}
}

func TestMaxThroughputFacade(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	qps, err := sys.MaxThroughput("BERT", "LSTM")
	if err != nil {
		t.Fatal(err)
	}
	if qps <= 0 {
		t.Fatalf("max throughput %v", qps)
	}
}

func TestExperimentDispatch(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 23 {
		t.Fatalf("experiments %d", len(names))
	}
	cfg := ExperimentConfig{Seed: 1, Scale: ScaleSmall}
	var tabs []*Table
	err := StreamExperiments([]string{"tab2"}, cfg, func(tab *Table) error {
		tabs = append(tabs, tab)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("tables %d", len(tabs))
	}
	var b strings.Builder
	if err := tabs[0].WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table 2") {
		t.Fatalf("unexpected table output:\n%s", b.String())
	}
	if err := StreamExperiments([]string{"bogus"}, cfg, func(*Table) error { return nil }); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestSimulateWithMIG(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(SimOptions{
		Devices: 3, Tasks: 6, MeanGapSec: 5, IterScale: 0.001, MIGSlices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d/6 on MIG instances", res.Completed)
	}
	if _, err := sys.Simulate(SimOptions{Devices: 2, MIGSlices: 9}); err == nil {
		t.Fatal("invalid MIG slice count accepted")
	}
}

func TestStreamExperimentsCheapSet(t *testing.T) {
	var titles []string
	err := StreamExperiments([]string{"fig3", "fig5", "background"}, ExperimentConfig{Seed: 1, Scale: ScaleSmall}, func(tab *Table) error {
		titles = append(titles, tab.Title)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 3 {
		t.Fatalf("tables %d", len(titles))
	}
}

func TestStreamExperimentsCallbackError(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := StreamExperiments([]string{"fig3"}, ExperimentConfig{Seed: 1, Scale: ScaleSmall}, func(*Table) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}
