package perf

import (
	"math"
	"testing"

	"mudi/internal/model"
	"mudi/internal/stats"
	"mudi/internal/xrand"
)

func TestCurveShape(t *testing.T) {
	o := NewOracle(1)
	curve, err := o.SoloCurve("GPT2", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Validate(); err != nil {
		t.Fatal(err)
	}
	// Latency must decrease with Δ, steeply below the knee.
	lowSlope := curve.Eval(0.1) - curve.Eval(0.2)
	highSlope := curve.Eval(0.8) - curve.Eval(0.9)
	if lowSlope <= 0 || highSlope <= 0 {
		t.Fatalf("latency not decreasing: low=%v high=%v", lowSlope, highSlope)
	}
	if lowSlope < 3*highSlope {
		t.Fatalf("steep segment (%v) not much steeper than shallow (%v)", lowSlope, highSlope)
	}
}

func TestKneeShiftsWithBatch(t *testing.T) {
	o := NewOracle(1)
	small, _ := o.SoloCurve("ResNet50", 16)
	large, _ := o.SoloCurve("ResNet50", 256)
	if large.Cutoff <= small.Cutoff {
		t.Fatalf("knee should move right with batch: %v vs %v", small.Cutoff, large.Cutoff)
	}
	if large.L0 <= small.L0 {
		t.Fatal("knee latency should grow with batch")
	}
}

func TestFig4Calibration(t *testing.T) {
	// Mean training-co-location interference over the Tab. 3 catalog:
	// ≈1.67 for GPT2, ≈1.21 for ResNet50 (tolerance ±0.25).
	o := NewOracle(1)
	check := func(svc string, want float64) {
		var sum float64
		var n int
		for _, task := range model.Tasks() {
			for _, b := range model.BatchSizes() {
				f, err := o.TrainColocFactor(svc, b, []model.TrainingTask{task})
				if err != nil {
					t.Fatal(err)
				}
				if f < 1 {
					t.Fatalf("interference factor %v < 1", f)
				}
				sum += f
				n++
			}
		}
		got := sum / float64(n)
		if math.Abs(got-want) > 0.25 {
			t.Fatalf("%s mean train interference %v, want ≈%v", svc, got, want)
		}
	}
	check("GPT2", 1.67)
	check("ResNet50", 1.21)
}

func TestFig3Calibration(t *testing.T) {
	// Inference-inference interference: ≈3.19 for GPT2, ≈2.40 for
	// ResNet50 — and always higher than training co-location.
	o := NewOracle(1)
	check := func(svc string, want float64) {
		var sum float64
		var n int
		for _, other := range model.Services() {
			if other.Name == svc {
				continue
			}
			for _, b := range []int{16, 32, 64, 128, 256} {
				f, err := o.InfColocFactor(svc, other.Name, b)
				if err != nil {
					t.Fatal(err)
				}
				sum += f
				n++
			}
		}
		got := sum / float64(n)
		if math.Abs(got-want) > 0.4 {
			t.Fatalf("%s mean inf interference %v, want ≈%v", svc, got, want)
		}
	}
	check("GPT2", 3.19)
	check("ResNet50", 2.40)
}

func TestInfColocWorseThanTrainColoc(t *testing.T) {
	o := NewOracle(1)
	for _, svc := range model.Services() {
		var trainSum, infSum float64
		var trainN, infN int
		for _, task := range model.Tasks() {
			f, _ := o.TrainColocFactor(svc.Name, 64, []model.TrainingTask{task})
			trainSum += f
			trainN++
		}
		for _, other := range model.Services() {
			if other.Name == svc.Name {
				continue
			}
			f, _ := o.InfColocFactor(svc.Name, other.Name, 64)
			infSum += f
			infN++
		}
		if infSum/float64(infN) <= trainSum/float64(trainN) {
			t.Fatalf("%s: inference co-location should hurt more than training", svc.Name)
		}
	}
}

func TestInterferenceTracksArchitecture(t *testing.T) {
	// A heavier architecture (more conv/encoder layers) must impose
	// more interference — the learnable signal of §4.1.2.
	o := NewOracle(1)
	light, _ := model.TaskByName("NCF")
	heavy, _ := model.TaskByName("YOLOv5")
	fl, _ := o.TrainColocFactor("BERT", 64, []model.TrainingTask{light})
	fh, _ := o.TrainColocFactor("BERT", 64, []model.TrainingTask{heavy})
	if fh <= fl {
		t.Fatalf("heavy task factor %v not above light %v", fh, fl)
	}
}

func TestMoreTasksMoreInterference(t *testing.T) {
	o := NewOracle(1)
	one := []model.TrainingTask{model.Tasks()[0]}
	three := model.Tasks()[:3]
	f1, _ := o.TrainColocFactor("ResNet50", 64, one)
	f3, _ := o.TrainColocFactor("ResNet50", 64, three)
	if f3 <= f1 {
		t.Fatalf("3-task factor %v not above 1-task %v", f3, f1)
	}
	// And the combined score saturates (sublinear growth).
	nine := model.Tasks()
	f9, _ := o.TrainColocFactor("ResNet50", 64, nine)
	if f9 > f3*2.5 {
		t.Fatalf("interference did not saturate: f3=%v f9=%v", f3, f9)
	}
}

func TestMeasurementNoiseIsBounded(t *testing.T) {
	o := NewOracle(1)
	rng := xrand.New(42)
	truth, err := o.TrueLatency("BERT", 64, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var samples []float64
	for i := 0; i < 500; i++ {
		v, err := o.MeasureLatency("BERT", 64, 0.5, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, v)
	}
	mean := stats.Mean(samples)
	if math.Abs(mean-truth)/truth > 0.03 {
		t.Fatalf("measurement mean %v far from truth %v", mean, truth)
	}
	if stats.StdDev(samples)/truth > 0.10 {
		t.Fatal("measurement noise too large")
	}
	if stats.StdDev(samples) == 0 {
		t.Fatal("measurements are noiseless")
	}
}

func TestIterationShareScaling(t *testing.T) {
	o := NewOracle(1)
	task, _ := model.TaskByName("VGG16")
	full, err := o.TrueIteration(task, 1, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-task.BaseIterMs) > 1e-9 {
		t.Fatalf("solo full-share iteration %v, want %v", full, task.BaseIterMs)
	}
	half, _ := o.TrueIteration(task, 0.5, "", 0, 0)
	if half <= full {
		t.Fatal("less share must be slower")
	}
	if half > full*2.2 {
		t.Fatalf("share scaling too superlinear: %v vs %v", half, full)
	}
}

func TestIterationInterferenceFromInference(t *testing.T) {
	o := NewOracle(1)
	task, _ := model.TaskByName("YOLOv5")
	solo, _ := o.TrueIteration(task, 0.5, "", 0, 0)
	withInf, err := o.TrueIteration(task, 0.5, "ResNet50", 128, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if withInf <= solo {
		t.Fatal("co-located inference must slow training")
	}
}

func TestIterationNonMonotonicInBatch(t *testing.T) {
	// The paper justifies BO by the non-monotonic relation between the
	// inference batch size and training throughput (§5.3.1).
	o := NewOracle(1)
	task, _ := model.TaskByName("LSTM")
	var prev float64
	increased, decreased := false, false
	for _, b := range model.BatchSizes() {
		v, err := o.TrueIteration(task, 0.5, "GPT2", b, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if v > prev {
				increased = true
			}
			if v < prev {
				decreased = true
			}
		}
		prev = v
	}
	if !increased || !decreased {
		t.Fatal("iteration time should be non-monotonic in inference batch size")
	}
}

func TestIterationErrors(t *testing.T) {
	o := NewOracle(1)
	task, _ := model.TaskByName("VGG16")
	if _, err := o.TrueIteration(task, 0, "", 0, 0); err == nil {
		t.Fatal("share 0 accepted")
	}
	if _, err := o.TrueIteration(task, 1.5, "", 0, 0); err == nil {
		t.Fatal("share >1 accepted")
	}
	if _, err := o.TrueIteration(task, 0.5, "nope", 64, 0.5); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := o.TrueIteration(task, 0.5, "GPT2", 0, 0.5); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestUnknownServiceErrors(t *testing.T) {
	o := NewOracle(1)
	if _, err := o.SoloCurve("nope", 64); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := o.SoloCurve("GPT2", 0); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestPhaseBreakdownConsistency(t *testing.T) {
	o := NewOracle(1)
	for _, svc := range []string{"GPT2", "ResNet50"} {
		fractions, factors, err := o.PhaseBreakdown(svc, ColocTraining, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		var fracSum, weighted float64
		for i := range fractions {
			fracSum += fractions[i]
			weighted += fractions[i] * factors[i]
		}
		if math.Abs(fracSum-1) > 1e-9 {
			t.Fatalf("%s phase fractions sum to %v", svc, fracSum)
		}
		if math.Abs(weighted-1.6) > 1e-9 {
			t.Fatalf("%s weighted phase factors %v, want 1.6", svc, weighted)
		}
	}
}

func TestPhaseBreakdownPaperFractions(t *testing.T) {
	o := NewOracle(1)
	fr, _, err := o.PhaseBreakdown("GPT2", ColocTraining, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if fr[0] != 0.04 || fr[1] != 0.10 || fr[2] != 0.86 {
		t.Fatalf("GPT2 phases %v, want paper's 4/10/86", fr)
	}
	fr, _, _ = o.PhaseBreakdown("ResNet50", ColocTraining, 1.5)
	if fr[0] != 0.07 || fr[1] != 0.71 || fr[2] != 0.22 {
		t.Fatalf("ResNet50 phases %v, want paper's 7/71/22", fr)
	}
}

func TestPhaseBreakdownInferencePenalizesCPU(t *testing.T) {
	o := NewOracle(1)
	_, trainF, _ := o.PhaseBreakdown("GPT2", ColocTraining, 2.0)
	_, infF, _ := o.PhaseBreakdown("GPT2", ColocInference, 2.0)
	if infF[0] <= trainF[0] {
		t.Fatalf("preprocessing factor under inference (%v) should exceed training (%v)", infF[0], trainF[0])
	}
}

func TestOracleDeterministicPerSeed(t *testing.T) {
	a, b := NewOracle(7), NewOracle(7)
	ca, _ := a.SoloCurve("BERT", 64)
	cb, _ := b.SoloCurve("BERT", 64)
	if ca != cb {
		t.Fatal("same seed produced different curves")
	}
	c := NewOracle(8)
	cc, _ := c.SoloCurve("BERT", 64)
	if ca == cc {
		t.Fatal("different seeds produced identical curves")
	}
}

func TestRegisterService(t *testing.T) {
	o := NewOracle(1)
	custom := model.InferenceService{Name: "Custom", SLOms: 200, BaseQPS: 100, WeightMB: 50, ActivationMBPerItem: 2}
	o.RegisterService(custom)
	curve, err := o.SoloCurve("Custom", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Validate(); err != nil {
		t.Fatal(err)
	}
	// Registering twice must not change the parameters.
	o.RegisterService(custom)
	curve2, _ := o.SoloCurve("Custom", 64)
	if curve != curve2 {
		t.Fatal("re-registration changed parameters")
	}
}

func TestServiceFeasibleAtNominalLoad(t *testing.T) {
	// The calibration promise: at nominal QPS, every service can meet
	// its SLO budget (SLO·b/W) at some Δ ≤ 0.9 for some batch size,
	// even under median training co-location.
	o := NewOracle(1)
	task, _ := model.TaskByName("LSTM")
	for _, svc := range model.Services() {
		feasible := false
		for _, b := range model.BatchSizes() {
			curve, err := o.TrainColocCurve(svc.Name, b, []model.TrainingTask{task})
			if err != nil {
				t.Fatal(err)
			}
			budget := svc.SLOms * float64(b) / svc.BaseQPS
			if _, ok := curve.MinDeltaFor(budget, 0.9); ok {
				feasible = true
				break
			}
		}
		if !feasible {
			t.Fatalf("%s cannot meet its SLO at nominal load under any batch", svc.Name)
		}
	}
}

func TestResourceUtilTakeaway(t *testing.T) {
	// §2.2.1: co-locating inference with training contends far less on
	// the CPU and keeps the SM busier than inference-with-inference.
	o := NewOracle(1)
	for _, svc := range model.Services() {
		cpuT, memT, smT, err := o.ResourceUtil(svc.Name, ColocTraining)
		if err != nil {
			t.Fatal(err)
		}
		cpuI, memI, smI, err := o.ResourceUtil(svc.Name, ColocInference)
		if err != nil {
			t.Fatal(err)
		}
		if cpuT >= cpuI {
			t.Fatalf("%s: training coloc CPU %v not below inference coloc %v", svc.Name, cpuT, cpuI)
		}
		if memT >= memI {
			t.Fatalf("%s: training coloc host mem %v not below inference coloc %v", svc.Name, memT, memI)
		}
		if smT <= smI {
			t.Fatalf("%s: training coloc SM %v not above inference coloc %v", svc.Name, smT, smI)
		}
	}
	if _, _, _, err := o.ResourceUtil("nope", ColocTraining); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestOracleQueriesAllocateNothing(t *testing.T) {
	// The oracle keeps no memo, so every query derives its residents'
	// idiosyncrasies afresh; that derivation must stay off the heap.
	// Each call uses a distinct residents set and batch, so nothing a
	// cache could hold would be reused.
	o := NewOracle(1)
	svc := model.Services()[0].Name
	tasks := model.Tasks()
	var colocs [][]model.TrainingTask
	for i := range tasks {
		for j := range tasks {
			if i != j {
				colocs = append(colocs, []model.TrainingTask{tasks[i], tasks[j]})
			}
		}
	}
	rng := xrand.New(7)
	k := 0
	allocs := testing.AllocsPerRun(len(colocs)-1, func() {
		coloc := colocs[k%len(colocs)]
		batch := 1 + k%256
		k++
		if _, err := o.TrainColocCurve(svc, batch, coloc); err != nil {
			t.Fatal(err)
		}
		if _, err := o.MeasureLatency(svc, batch, 0.5, coloc, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("oracle query allocates %v times per call, want 0", allocs)
	}
}
