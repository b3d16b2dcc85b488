package predictor

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/profiler"
	"mudi/internal/stats"
	"mudi/internal/xrand"
)

// trainPredictor profiles svc against the observed tasks and trains a
// predictor — the offline pipeline end to end.
func trainPredictor(t *testing.T, seed uint64, services []string) (*Predictor, *perf.Oracle) {
	t.Helper()
	o := perf.NewOracle(seed)
	prof := profiler.New(o, xrand.New(seed+10))
	pred := New(seed)
	for _, svc := range services {
		profiles, err := prof.ProfileService(svc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pred.Train(profiles); err != nil {
			t.Fatal(err)
		}
	}
	return pred, o
}

func TestTrainRefitsOnlyItsBatch(t *testing.T) {
	// Training service B must leave service A's fitted learners, and so
	// its generation, as they were: A's samples did not change, so a
	// refit would only redo the same model selection.
	pred, _ := trainPredictor(t, 3, []string{"BERT"})
	bertGen := pred.Generation("BERT")
	if bertGen == 0 || pred.Generation("GPT2") != 0 {
		t.Fatalf("after training BERT: generations BERT %d, GPT2 %d", bertGen, pred.Generation("GPT2"))
	}
	var before [4]int
	for i, l := range pred.services["BERT"].learners {
		before[i], _ = l.Refits()
	}
	o := perf.NewOracle(3)
	profiles, err := profiler.New(o, xrand.New(14)).ProfileService("GPT2", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.Train(profiles); err != nil {
		t.Fatal(err)
	}
	for i, l := range pred.services["BERT"].learners {
		if refits, _ := l.Refits(); refits != before[i] {
			t.Fatalf("training GPT2 refitted BERT's %s learner", targetNames[i])
		}
	}
	for i, l := range pred.services["GPT2"].learners {
		if l.ModelName() == "" {
			t.Fatalf("GPT2's %s learner was not fitted", targetNames[i])
		}
	}
	gpt2Gen := pred.Generation("GPT2")
	if pred.Generation("BERT") != bertGen || gpt2Gen == 0 {
		t.Fatalf("after training GPT2: generations BERT %d (was %d), GPT2 %d", pred.Generation("BERT"), bertGen, gpt2Gen)
	}
	if err := pred.Update(profiles[len(profiles)-1]); err != nil {
		t.Fatal(err)
	}
	if pred.Generation("BERT") != bertGen || pred.Generation("GPT2") == gpt2Gen {
		t.Fatalf("a GPT2 update left generations BERT %d (was %d), GPT2 %d (was %d)",
			pred.Generation("BERT"), bertGen, pred.Generation("GPT2"), gpt2Gen)
	}
}

func TestPredictObservedTask(t *testing.T) {
	pred, o := trainPredictor(t, 1, []string{"BERT"})
	task := model.ObservedTasks()[1]
	curve, err := pred.PredictCurve("BERT", 64, task.Arch)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := o.TrainColocCurve("BERT", 64, []model.TrainingTask{task})
	if err != nil {
		t.Fatal(err)
	}
	// Observed tasks were in the training set: knee latency within 20%.
	if e := stats.MAPE([]float64{curve.L0}, []float64{truth.L0}); e > 0.2 {
		t.Fatalf("l0 error %v on observed task", e)
	}
}

func TestPredictUnseenTasks(t *testing.T) {
	// Fig. 11's claim: architecture features generalize to the unseen
	// Tab. 3 tasks with bounded error (paper: all below 0.3, with
	// cutoff/l0 much better than slopes).
	pred, o := trainPredictor(t, 2, []string{"GPT2"})
	var l0Pred, l0True, cutPred, cutTrue []float64
	for _, task := range model.UnseenTasks() {
		for _, b := range model.BatchSizes() {
			curve, err := pred.PredictCurve("GPT2", b, task.Arch)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := o.TrainColocCurve("GPT2", b, []model.TrainingTask{task})
			if err != nil {
				t.Fatal(err)
			}
			l0Pred = append(l0Pred, curve.L0)
			l0True = append(l0True, truth.L0)
			cutPred = append(cutPred, curve.Cutoff)
			cutTrue = append(cutTrue, truth.Cutoff)
		}
	}
	// Paper Fig. 11 averages: k1 0.23, k2 0.16, Δ0 0.05, l0 0.06, all
	// bars below 0.3; our oracle's l0 varies more with architecture, so
	// allow modest slack while still requiring generalization.
	if e := stats.MAPE(l0Pred, l0True); e > 0.35 {
		t.Fatalf("unseen-task l0 error %v, want <0.35", e)
	}
	if e := stats.MAPE(cutPred, cutTrue); e > 0.3 {
		t.Fatalf("unseen-task cutoff error %v, want <0.3", e)
	}
}

func TestPredictionErrorNonzero(t *testing.T) {
	// The oracle's idiosyncratic component must keep prediction
	// imperfect — if error is exactly zero the oracle is leaking.
	pred, o := trainPredictor(t, 3, []string{"ResNet50"})
	task := model.UnseenTasks()[0]
	curve, err := pred.PredictCurve("ResNet50", 64, task.Arch)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := o.TrainColocCurve("ResNet50", 64, []model.TrainingTask{task})
	if curve.L0 == truth.L0 {
		t.Fatal("prediction exactly equals truth: oracle leaked")
	}
}

func TestUntrainedErrors(t *testing.T) {
	pred := New(1)
	if _, err := pred.PredictCurve("BERT", 64, model.Arch{}); !errors.Is(err, ErrUntrained) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := pred.AvgSlope("BERT", model.Arch{}); err == nil {
		t.Fatal("untrained AvgSlope accepted")
	}
	if _, err := pred.ModelNames("BERT"); err == nil {
		t.Fatal("untrained ModelNames accepted")
	}
	if pred.Samples("BERT") != 0 {
		t.Fatal("phantom samples")
	}
}

func TestTrainRejectsBadProfiles(t *testing.T) {
	pred := New(1)
	bad := []profiler.Profile{{Service: ""}}
	if err := pred.Train(bad); err == nil {
		t.Fatal("empty service accepted")
	}
	bad = []profiler.Profile{{Service: "X"}} // zero curve is invalid
	if err := pred.Train(bad); err == nil {
		t.Fatal("invalid curve accepted")
	}
	if g := pred.Generation("X"); g != 0 {
		t.Fatalf("a rejected profile moved the generation to %d", g)
	}
}

func TestAvgSlopeRanksInterference(t *testing.T) {
	// The Device Selector's score must rank a heavy architecture above
	// a light one (§5.2).
	pred, _ := trainPredictor(t, 4, []string{"GPT2"})
	light, _ := model.TaskByName("NCF")
	heavy, _ := model.TaskByName("ResNet50-train")
	sLight, _, err := pred.AvgSlope("GPT2", light.Arch)
	if err != nil {
		t.Fatal(err)
	}
	sHeavy, _, err := pred.AvgSlope("GPT2", heavy.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if sHeavy <= sLight {
		t.Fatalf("heavy slope %v not above light %v", sHeavy, sLight)
	}
}

func TestModelNamesPopulated(t *testing.T) {
	pred, _ := trainPredictor(t, 6, []string{"RoBERTa"})
	names, err := pred.ModelNames("RoBERTa")
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if n == "" {
			t.Fatalf("target %s has no model", targetNames[i])
		}
	}
}

func TestIncrementalUpdateImproves(t *testing.T) {
	// Fig. 12: adding online profiles of a new co-location reduces the
	// E2E prediction error for that co-location.
	o := perf.NewOracle(7)
	prof := profiler.New(o, xrand.New(17))
	pred := New(7)
	profiles, err := prof.ProfileService("RoBERTa", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.Train(profiles); err != nil {
		t.Fatal(err)
	}
	target, _ := model.TaskByName("YOLOv5") // unseen
	measure := func() float64 {
		var preds, truths []float64
		for _, b := range model.BatchSizes() {
			curve, err := pred.PredictCurve("RoBERTa", b, target.Arch)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []float64{0.2, 0.5, 0.8} {
				truth, _ := o.TrueLatency("RoBERTa", b, d, []model.TrainingTask{target})
				preds = append(preds, curve.Eval(d))
				truths = append(truths, truth)
			}
		}
		return stats.MAPE(preds, truths)
	}
	before := measure()
	// Profile the new co-location online and update.
	for _, b := range model.BatchSizes() {
		pr, err := prof.ProfileOne("RoBERTa", b, []model.TrainingTask{target})
		if err != nil {
			t.Fatal(err)
		}
		if err := pred.Update(pr); err != nil {
			t.Fatal(err)
		}
	}
	after := measure()
	if after >= before {
		t.Fatalf("incremental update did not improve: %v → %v", before, after)
	}
	// Fig. 12 reaches <0.16 at 90 accumulated samples; this test adds
	// only 6 online profiles, so require the looser waypoint.
	if after > 0.25 {
		t.Fatalf("post-update error %v, want <0.25", after)
	}
}

func TestSamplesAndServices(t *testing.T) {
	pred, _ := trainPredictor(t, 8, []string{"YOLOS"})
	if got := pred.Samples("YOLOS"); got != 36 {
		t.Fatalf("samples %d, want 36 (6 batches × (solo + 5 tasks))", got)
	}
	if len(pred.services) != 1 || pred.services["YOLOS"] == nil {
		t.Fatalf("services %v, want YOLOS alone", pred.services)
	}
}

func TestTrainFromPersistedProfiles(t *testing.T) {
	// The offline profiles round-trip through their JSON persistence
	// and still train a working predictor.
	o := perf.NewOracle(12)
	prof := profiler.New(o, xrand.New(112))
	profiles, err := prof.ProfileService("GPT2", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := profiler.SaveProfiles(&b, profiles); err != nil {
		t.Fatal(err)
	}
	loaded, err := profiler.LoadProfiles(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	pred := New(12)
	if err := pred.Train(loaded); err != nil {
		t.Fatal(err)
	}
	task, _ := model.TaskByName("YOLOv5")
	curve, err := pred.PredictCurve("GPT2", 64, task.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateScoresBeforeLearning: Update scores each online profile
// against the curve predicted just before it is learned, and the
// scoring changes no prediction.
func TestUpdateScoresBeforeLearning(t *testing.T) {
	pred, o := trainPredictor(t, 4, []string{"BERT"})
	twin, _ := trainPredictor(t, 4, []string{"BERT"})
	if s := pred.Stats(); s.Scored != 0 || s.Refits != 4 || s.Selections != 4 {
		t.Fatalf("after training: %d scored, %d refits, %d selections; want 0, 4, 4", s.Scored, s.Refits, s.Selections)
	}
	prof := profiler.New(o, xrand.New(41))
	task := model.UnseenTasks()[0]
	var wantTarget [4]float64
	var latSum float64
	var latN int
	var curve []float64
	for _, b := range model.BatchSizes() {
		p, err := prof.ProfileOne("BERT", b, []model.TrainingTask{task})
		if err != nil {
			t.Fatal(err)
		}
		before, err := pred.PredictCurve("BERT", b, task.Arch)
		if err != nil {
			t.Fatal(err)
		}
		got, truth := before.Params(), p.Curve.Params()
		for i := range truth {
			wantTarget[i] += math.Abs(got[i]-truth[i]) / math.Abs(truth[i])
		}
		var sum float64
		for _, sm := range p.Samples {
			sum += math.Abs(before.Eval(sm.Delta)-sm.Latency) / sm.Latency
		}
		latSum += sum
		latN += len(p.Samples)
		curve = append(curve, sum/float64(len(p.Samples)))
		if err := pred.Update(p); err != nil {
			t.Fatal(err)
		}
		twin.add(p, true) // the same learning without the scoring
	}
	s := pred.Stats()
	n := float64(len(model.BatchSizes()))
	if s.Scored != len(model.BatchSizes()) || len(s.Curve) != s.Scored {
		t.Fatalf("scored %d profiles with %d curve points, want %d", s.Scored, len(s.Curve), len(model.BatchSizes()))
	}
	for i := range wantTarget {
		if math.Abs(s.TargetMAPE[i]-wantTarget[i]/n) > 1e-12 {
			t.Errorf("%s MAPE %v, want %v", targetNames[i], s.TargetMAPE[i], wantTarget[i]/n)
		}
	}
	if math.Abs(s.LatencyMAPE-latSum/float64(latN)) > 1e-12 || s.LatencyMAPE <= 0 {
		t.Errorf("latency MAPE %v, want %v", s.LatencyMAPE, latSum/float64(latN))
	}
	for i := range curve {
		if math.Abs(s.Curve[i]-curve[i]) > 1e-12 {
			t.Errorf("curve[%d] = %v, want %v", i, s.Curve[i], curve[i])
		}
	}
	if s.Refits <= 4 {
		t.Errorf("%d refits after %d updates, want more than training's 4", s.Refits, s.Scored)
	}
	for _, b := range model.BatchSizes() {
		a, _ := pred.PredictCurve("BERT", b, task.Arch)
		c, _ := twin.PredictCurve("BERT", b, task.Arch)
		if a != c {
			t.Fatalf("batch %d: scored learner predicts %v, unscored %v", b, a, c)
		}
	}
}

// TestCloneLearnsIndependently: Update on a clone leaves the predictor
// it was cloned from as it was, and two clones fed the same profiles
// stay equal to each other.
func TestCloneLearnsIndependently(t *testing.T) {
	base, o := trainPredictor(t, 5, []string{"BERT", "GPT2"})
	type snapshot struct {
		curves  []piecewise.Func
		gen     uint64
		samples int
		stats   Stats
	}
	tasks := model.UnseenTasks()
	snap := func(p *Predictor) snapshot {
		var s snapshot
		for _, b := range model.BatchSizes() {
			for _, task := range tasks {
				c, err := p.PredictCurve("BERT", b, task.Arch)
				if err != nil {
					t.Fatal(err)
				}
				s.curves = append(s.curves, c)
			}
		}
		s.gen, s.samples, s.stats = p.Generation("BERT"), p.Samples("BERT"), p.Stats()
		return s
	}
	want := snap(base)
	a, b := base.Clone(), base.Clone()
	if got := snap(a); !reflect.DeepEqual(got, want) {
		t.Fatal("a fresh clone predicts differently from its base")
	}
	prof := profiler.New(o, xrand.New(51))
	for _, task := range tasks[:2] {
		for _, batch := range model.BatchSizes() {
			p, err := prof.ProfileOne("BERT", batch, []model.TrainingTask{task})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Update(p); err != nil {
				t.Fatal(err)
			}
			if err := b.Update(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := snap(base); !reflect.DeepEqual(got, want) {
		t.Errorf("updating clones changed their base: generation %d → %d, samples %d → %d, stats %+v → %+v",
			want.gen, got.gen, want.samples, got.samples, want.stats, got.stats)
	}
	sa, sb := snap(a), snap(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Error("two clones updated with the same profiles differ")
	}
	if sa.samples <= want.samples || sa.gen <= want.gen || sa.stats.Scored == 0 {
		t.Errorf("clone did not learn: samples %d (base %d), generation %d (base %d), scored %d",
			sa.samples, want.samples, sa.gen, want.gen, sa.stats.Scored)
	}
	if reflect.DeepEqual(sa.curves, want.curves) {
		t.Error("clone predictions unchanged after learning two unseen tasks")
	}
}
