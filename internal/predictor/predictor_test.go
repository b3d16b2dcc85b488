package predictor

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mudi/internal/learn"
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

var featuresSink []float64

// TestFeaturesOneAllocation: X = [Ψ, log2 b] is built in one
// allocation, with the values of Arch.Features followed by log2 b.
func TestFeaturesOneAllocation(t *testing.T) {
	task, _ := model.TaskByName("LSTM")
	arch := task.Arch.Add(task.Arch)
	want := append(arch.Features(), math.Log2(64))
	if got := features(arch, 64); !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { featuresSink = features(arch, 64) }); n != 1 {
		t.Fatalf("features allocates %v objects, want 1", n)
	}
}

// onlineProfiles profiles svc co-located with each unseen task at every
// batch size: one online stream of 24 profiles.
func onlineProfiles(t *testing.T, o *perf.Oracle, seed uint64, svc string) []profiler.Profile {
	t.Helper()
	prof := profiler.New(o, xrand.New(seed))
	var out []profiler.Profile
	for _, task := range model.UnseenTasks() {
		for _, b := range model.BatchSizes() {
			p, err := prof.ProfileOne(svc, b, []model.TrainingTask{task})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// probeFeatures are the feature vectors the determinism tests predict
// at: every batch size, solo and co-located with observed, unseen and
// stacked tasks.
func probeFeatures() [][]float64 {
	tasks := model.Tasks()
	archs := []model.Arch{{}, tasks[1].Arch, tasks[6].Arch, tasks[2].Arch.Add(tasks[7].Arch)}
	var out [][]float64
	for _, b := range model.BatchSizes() {
		for _, a := range archs {
			out = append(out, features(a, b))
		}
	}
	return out
}

// TestUpdateMatchesSequentialLearners: Train's concurrent selections
// and Update's concurrent refits leave every target exactly where four
// hand-built learners fed the same samples in order, one after the
// other, would be: the same predictions bit for bit, refit and
// selection counts, model families and Stats, with one core or four.
// BERT is trained offline, so its online refits refit the incumbent;
// GPT2 is learned online only, so its learners start below
// minCVSamples and its first refit over enough samples selects.
func TestUpdateMatchesSequentialLearners(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const seed, trained, online = 9, "BERT", "GPT2"
			o := perf.NewOracle(seed)
			offline, err := profiler.New(o, xrand.New(seed+10)).ProfileService(trained, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			pred := New(seed)
			ref := &Predictor{services: map[string]*svcPredictor{}}
			for _, svc := range []string{trained, online} {
				ref.services[svc] = &svcPredictor{}
				for i := range ref.services[svc].learners {
					ref.services[svc].learners[i] = learn.NewIncremental(seed + uint64(i)*7919)
				}
			}
			sample := func(p profiler.Profile) (x []float64, y [4]float64, group string) {
				return features(p.ColocArch(), p.Batch), p.Curve.Params(), fmt.Sprint(p.ColocArch())
			}
			probes := probeFeatures()
			check := func(stage string) {
				t.Helper()
				for svc, sp := range pred.services {
					for i, l := range sp.learners {
						want := ref.services[svc].learners[i]
						for _, x := range probes {
							got, gok := l.Predict(x)
							exp, eok := want.Predict(x)
							if got != exp || gok != eok {
								t.Fatalf("%s: %s %s predicts %v at %v, sequential learner %v", stage, svc, targetNames[i], got, x, exp)
							}
						}
						gr, gs := l.Refits()
						wr, ws := want.Refits()
						if gr != wr || gs != ws || l.ModelName() != want.ModelName() || l.N() != want.N() {
							t.Fatalf("%s: %s %s has %d refits, %d selections, %s over %d samples; sequential learner %d, %d, %s over %d",
								stage, svc, targetNames[i], gr, gs, l.ModelName(), l.N(), wr, ws, want.ModelName(), want.N())
						}
					}
				}
				if got, want := pred.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stats %+v, sequential %+v", stage, got, want)
				}
			}

			if err := pred.Train(offline); err != nil {
				t.Fatal(err)
			}
			for _, p := range offline {
				x, y, group := sample(p)
				for i, l := range ref.services[trained].learners {
					l.Add(x, y[i], group)
				}
			}
			for _, l := range ref.services[trained].learners {
				if err := l.Select(); err != nil {
					t.Fatal(err)
				}
			}
			check("after Train")

			stream := append(onlineProfiles(t, o, seed+20, trained), onlineProfiles(t, o, seed+30, online)...)
			for k, p := range stream {
				before, untrained := ref.PredictCurve(p.Service, p.Batch, p.ColocArch())
				if untrained != nil && ref.services[p.Service].learners[0].N() > 0 {
					t.Fatal(untrained)
				}
				x, y, group := sample(p)
				for i, l := range ref.services[p.Service].learners {
					l.Add(x, y[i], group)
					if !l.RefitDue() {
						continue
					}
					if err := l.Refit(); err != nil {
						t.Fatal(err)
					}
				}
				if untrained == nil {
					ref.score.add(before, p)
				}
				if err := pred.Update(p); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("after update %d (%s)", k, p.Service))
			}
			for _, svc := range []string{trained, online} {
				var r, sel int
				for _, l := range pred.services[svc].learners {
					lr, ls := l.Refits()
					r, sel = r+lr, sel+ls
				}
				if sel != 4 || r <= sel {
					t.Fatalf("%s ran %d refits and %d selections; want one selection per target and online refits besides", svc, r, sel)
				}
			}
		})
	}
}

// TestOnlineRefitsKeepTheOfflineFamily: after Train, 30 online Updates
// run no model selection, and each refit is a fresh fit of Train's
// family on the learner's samples: it predicts every row bit for bit as
// a new instance of that family fitted on the same rows.
func TestOnlineRefitsKeepTheOfflineFamily(t *testing.T) {
	const seed, svc = 17, "RoBERTa"
	o := perf.NewOracle(seed)
	offline, err := profiler.New(o, xrand.New(seed+10)).ProfileService(svc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := New(seed)
	if err := pred.Train(offline); err != nil {
		t.Fatal(err)
	}
	trained := pred.Stats()
	learners := pred.services[svc].learners
	var families [4]string
	for i, l := range learners {
		families[i] = l.ModelName()
	}
	var xs [][]float64
	var ys [4][]float64
	learnRow := func(p profiler.Profile) {
		xs = append(xs, features(p.ColocArch(), p.Batch))
		for i, v := range p.Curve.Params() {
			ys[i] = append(ys[i], v)
		}
	}
	for _, p := range offline {
		learnRow(p)
	}
	stream := append(onlineProfiles(t, o, seed+20, svc), onlineProfiles(t, o, seed+30, svc)...)[:30]
	refits := 0
	for k, p := range stream {
		var before [4]int
		for i, l := range learners {
			before[i], _ = l.Refits()
		}
		if err := pred.Update(p); err != nil {
			t.Fatal(err)
		}
		learnRow(p)
		if s := pred.Stats(); s.Selections != trained.Selections {
			t.Fatalf("update %d: %d selections, Train ran %d", k, s.Selections, trained.Selections)
		}
		for i, l := range learners {
			if r, _ := l.Refits(); r == before[i] {
				continue
			}
			refits++
			if l.ModelName() != families[i] {
				t.Fatalf("update %d: %s switched from %s to %s", k, targetNames[i], families[i], l.ModelName())
			}
			cands := learn.Candidates(seed + uint64(i)*7919)
			fresh := cands[slices.IndexFunc(cands, func(m learn.Regressor) bool { return m.Name() == families[i] })]
			if err := fresh.Fit(xs, ys[i]); err != nil {
				t.Fatal(err)
			}
			for j, x := range xs {
				got, _ := l.Predict(x)
				if want := fresh.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("update %d: %s row %d predicts %v, a fresh %s fit %v", k, targetNames[i], j, got, families[i], want)
				}
			}
		}
	}
	if refits == 0 {
		t.Fatal("no online refit ran")
	}
	t.Logf("%d online refits of %v", refits, families)
}

// TestLearnersStayAligned: every Update gives the sample to all four
// learners before any refits, so they always hold the same samples and
// refit together, and a refit error on one target neither keeps the
// sample from the targets after it nor hides which target failed.
func TestLearnersStayAligned(t *testing.T) {
	pred, o := trainPredictor(t, 11, []string{"GPT2"})
	aligned := func(stage string) {
		t.Helper()
		n := pred.Samples("GPT2")
		for i, l := range pred.services["GPT2"].learners {
			if l.N() != n {
				t.Fatalf("%s: %s holds %d samples, k1 %d", stage, targetNames[i], l.N(), n)
			}
		}
	}
	online := onlineProfiles(t, o, 31, "GPT2")
	for k, p := range online[:12] {
		if err := pred.Update(p); err != nil {
			t.Fatal(err)
		}
		aligned(fmt.Sprintf("update %d", k))
		var refits [4]int
		for i, l := range pred.services["GPT2"].learners {
			refits[i], _ = l.Refits()
		}
		if refits != [4]int{refits[0], refits[0], refits[0], refits[0]} {
			t.Fatalf("update %d: refit counts %v drifted apart", k, refits)
		}
	}

	// Poison k2 and l0 with a non-finite target, which no model can
	// fit; k1 and Δ0 take a finite copy of the same row.
	x := features(online[0].ColocArch(), online[0].Batch)
	for i, l := range pred.services["GPT2"].learners {
		y := 1.0
		if i == 1 || i == 3 {
			y = math.NaN()
		}
		l.Add(x, y, "poison")
	}
	failed := 0
	for k, p := range online[12:] {
		err := pred.Update(p)
		aligned(fmt.Sprintf("poisoned update %d", k))
		if err == nil {
			continue
		}
		failed++
		if msg := err.Error(); !strings.HasPrefix(msg, "predictor: refit GPT2 k2: ") {
			t.Fatalf("poisoned update %d: error %q, want k2's refit failure first", k, msg)
		}
	}
	if failed == 0 {
		t.Fatal("no refit failed on the poisoned learners")
	}
}

// TestUpdateRejectsNonPositiveBatch: a profile at batch ≤ 0, whose
// log2 feature is not finite, is rejected before any learner takes it,
// so it changes no sample, generation, prediction or statistic, and
// the service learns on normally.
func TestUpdateRejectsNonPositiveBatch(t *testing.T) {
	pred, o := trainPredictor(t, 13, []string{"BERT"})
	online := onlineProfiles(t, o, 43, "BERT")
	snap := func() (int, uint64, []float64, Stats) {
		var ys []float64
		for _, l := range pred.services["BERT"].learners {
			for _, x := range probeFeatures() {
				y, _ := l.Predict(x)
				ys = append(ys, y)
			}
		}
		return pred.Samples("BERT"), pred.Generation("BERT"), ys, pred.Stats()
	}
	n, gen, ys, st := snap()
	for _, batch := range []int{0, -8} {
		bad := online[0]
		bad.Batch = batch
		if err := pred.Update(bad); err == nil {
			t.Fatalf("batch %d accepted", batch)
		}
		if err := pred.Train([]profiler.Profile{bad}); err == nil {
			t.Fatalf("Train accepted batch %d", batch)
		}
		n2, gen2, ys2, st2 := snap()
		if n2 != n || gen2 != gen || !reflect.DeepEqual(ys2, ys) || !reflect.DeepEqual(st2, st) {
			t.Fatalf("rejected batch %d moved samples %d → %d, generation %d → %d, or a prediction or statistic", batch, n, n2, gen, gen2)
		}
	}
	for k, p := range online[:11] {
		if err := pred.Update(p); err != nil {
			t.Fatalf("update %d after a rejected profile: %v", k, err)
		}
	}
	if s := pred.Stats(); s.Refits < st.Refits+8 {
		t.Fatalf("%d refits after 11 updates on four targets, want at least %d", s.Refits-st.Refits, 8)
	}
}
