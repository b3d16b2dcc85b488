package profiler

import (
	"fmt"
	"testing"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/stats"
	"mudi/internal/xrand"
)

func newProfiler(seed uint64) (*Profiler, *perf.Oracle) {
	o := perf.NewOracle(seed)
	return New(o, xrand.New(seed+1)), o
}

func TestProfileOneFitsTruth(t *testing.T) {
	p, o := newProfiler(1)
	task, _ := model.TaskByName("LSTM")
	prof, err := p.ProfileOne("BERT", 64, []model.TrainingTask{task})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) != 6 {
		t.Fatalf("samples %d, want 6", len(prof.Samples))
	}
	// The fitted curve should track the true curve within ~15% on the
	// interior of the grid.
	var preds, truths []float64
	for _, d := range []float64{0.2, 0.5, 0.8} {
		truth, err := o.TrueLatency("BERT", 64, d, []model.TrainingTask{task})
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, prof.Curve.Eval(d))
		truths = append(truths, truth)
	}
	if e := stats.MAPE(preds, truths); e > 0.15 {
		t.Fatalf("fit MAPE %v too high", e)
	}
}

func TestProfileOneSolo(t *testing.T) {
	p, _ := newProfiler(2)
	prof, err := p.ProfileOne("ResNet50", 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prof.ColocArch().Total() != 0 {
		t.Fatal("solo profile should have empty coloc arch")
	}
}

func TestProfileOneErrors(t *testing.T) {
	p, _ := newProfiler(3)
	if _, err := p.ProfileOne("nope", 64, nil); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestProfileServiceGrid(t *testing.T) {
	p, _ := newProfiler(4)
	profs, err := p.ProfileService("GPT2", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 6 batches × (solo + 5 observed tasks).
	if len(profs) != 36 {
		t.Fatalf("profiles %d, want 36", len(profs))
	}
	seen := map[string]bool{}
	for _, pr := range profs {
		if pr.Service != "GPT2" {
			t.Fatal("wrong service")
		}
		key := fmt.Sprintf("%v/%d", pr.Coloc, pr.Batch)
		if seen[key] {
			t.Fatal("duplicate cell")
		}
		seen[key] = true
	}
}

func TestProfileAll(t *testing.T) {
	p, _ := newProfiler(5)
	// Restrict the grid to keep the test fast.
	batches := []int{64}
	sets := [][]model.TrainingTask{{model.ObservedTasks()[0]}}
	all, err := p.ProfileAll(batches, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("services %d", len(all))
	}
	for svc, profs := range all {
		if len(profs) != 1 {
			t.Fatalf("%s profiles %d", svc, len(profs))
		}
	}
}

func TestColocArchCumulative(t *testing.T) {
	tasks := model.ObservedTasks()[:2]
	prof := Profile{Coloc: tasks}
	want := tasks[0].Arch.Add(tasks[1].Arch)
	if prof.ColocArch() != want {
		t.Fatal("cumulative arch wrong")
	}
}

func TestMultiColocSets(t *testing.T) {
	if got := len(MultiColocSets(1)); got != 5 {
		t.Fatalf("singletons %d, want 5", got)
	}
	// 5 singles + C(5,2)=10 pairs.
	if got := len(MultiColocSets(2)); got != 15 {
		t.Fatalf("with pairs %d, want 15", got)
	}
	// + C(5,3)=10 triples.
	if got := len(MultiColocSets(3)); got != 25 {
		t.Fatalf("with triples %d, want 25", got)
	}
}

func TestCompareFittingShape(t *testing.T) {
	// Table 2's claims on live oracle measurements: the piecewise error
	// improves from 5 to 6 samples and beats both other families at 6
	// and 7 samples.
	p, _ := newProfiler(6)
	task, _ := model.TaskByName("VGG16")
	rows, err := p.CompareFitting([]string{"GPT2", "ResNet50", "BERT"}, 128, []model.TrainingTask{task}, []int{5, 6, 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	r5, r6, r7 := rows[0], rows[1], rows[2]
	if r6.Piecewise >= r5.Piecewise {
		t.Fatalf("no 5→6 drop: %v → %v", r5.Piecewise, r6.Piecewise)
	}
	if r6.Piecewise >= r6.Poly || r6.Piecewise >= r6.MLP {
		t.Fatalf("n=6: pw %.2f vs poly %.2f, mlp %.2f", r6.Piecewise, r6.Poly, r6.MLP)
	}
	if r7.Piecewise >= r7.Poly || r7.Piecewise >= r7.MLP {
		t.Fatalf("n=7: pw %.2f vs poly %.2f, mlp %.2f", r7.Piecewise, r7.Poly, r7.MLP)
	}
}

func TestCompareFittingRejectsBadCount(t *testing.T) {
	p, _ := newProfiler(7)
	if _, err := p.CompareFitting([]string{"GPT2"}, 64, nil, []int{4}, 2); err == nil {
		t.Fatal("unsupported sample count accepted")
	}
}
