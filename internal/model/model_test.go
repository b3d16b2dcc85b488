package model

import (
	"math"
	"testing"
)

func TestCatalogMatchesTable1(t *testing.T) {
	svcs := Services()
	if len(svcs) != 6 {
		t.Fatalf("service count %d, want 6", len(svcs))
	}
	want := map[string]float64{
		"ResNet50": 150, "Inception": 120, "GPT2": 100,
		"BERT": 330, "RoBERTa": 110, "YOLOS": 2200,
	}
	for _, s := range svcs {
		slo, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected service %q", s.Name)
		}
		if s.SLOms != slo {
			t.Fatalf("%s SLO %v, want %v", s.Name, s.SLOms, slo)
		}
		if s.ParamsM <= 0 || s.WeightMB <= 0 || s.BaseQPS <= 0 {
			t.Fatalf("%s has unset fields: %+v", s.Name, s)
		}
		if s.Arch.Total() == 0 {
			t.Fatalf("%s has empty architecture", s.Name)
		}
	}
}

func TestCatalogMatchesTable3(t *testing.T) {
	tasks := Tasks()
	if len(tasks) != 9 {
		t.Fatalf("task count %d, want 9", len(tasks))
	}
	var fracSum float64
	sizes := map[SizeClass]int{}
	for _, task := range tasks {
		fracSum += task.Frac
		sizes[task.Size]++
		if task.BaseIterMs <= 0 || task.TotalIters <= 0 || task.BatchSize <= 0 {
			t.Fatalf("%s has unset fields: %+v", task.Name, task)
		}
		if task.Arch.Total() == 0 {
			t.Fatalf("%s has empty architecture", task.Name)
		}
	}
	// The paper's Tab. 3 fractions sum to 1.02 (rounding); generators
	// normalize the weights.
	if math.Abs(fracSum-1.02) > 1e-9 {
		t.Fatalf("trace fractions sum to %v, want 1.02 (as printed in Tab. 3)", fracSum)
	}
	// Tab. 3: 3×S, 3×M, 2×L, 1×XL.
	if sizes[SizeS] != 3 || sizes[SizeM] != 3 || sizes[SizeL] != 2 || sizes[SizeXL] != 1 {
		t.Fatalf("size classes %v", sizes)
	}
}

func TestSizeClassesMatchGPUHours(t *testing.T) {
	for _, task := range Tasks() {
		h := task.SoloGPUHours()
		switch task.Size {
		case SizeS:
			if h >= 1 {
				t.Fatalf("%s: %v GPU-hours, want <1 for S", task.Name, h)
			}
		case SizeM:
			if h < 1 || h > 10 {
				t.Fatalf("%s: %v GPU-hours, want 1–10 for M", task.Name, h)
			}
		case SizeL:
			if h < 10 || h > 100 {
				t.Fatalf("%s: %v GPU-hours, want 10–100 for L", task.Name, h)
			}
		case SizeXL:
			if h <= 100 {
				t.Fatalf("%s: %v GPU-hours, want >100 for XL", task.Name, h)
			}
		}
	}
}

func TestObservedUnseenSplit(t *testing.T) {
	obs, unseen := ObservedTasks(), UnseenTasks()
	if len(obs) != 5 || len(unseen) != 4 {
		t.Fatalf("split %d/%d, want 5/4", len(obs), len(unseen))
	}
	if obs[0].Name != "VGG16" || unseen[0].Name != "AD-GCL" {
		t.Fatalf("split order wrong: %s / %s", obs[0].Name, unseen[0].Name)
	}
}

func TestLookups(t *testing.T) {
	if s, ok := ServiceByName("GPT2"); !ok || s.ParamsM != 335 {
		t.Fatalf("ServiceByName(GPT2) = %+v, %v", s, ok)
	}
	if _, ok := ServiceByName("nope"); ok {
		t.Fatal("unknown service found")
	}
	if task, ok := TaskByName("YOLOv5"); !ok || task.Size != SizeL {
		t.Fatalf("TaskByName(YOLOv5) = %+v, %v", task, ok)
	}
	if _, ok := TaskByName("nope"); ok {
		t.Fatal("unknown task found")
	}
}

func TestMemoryModels(t *testing.T) {
	s, _ := ServiceByName("ResNet50")
	if s.MemoryMB(0) != s.WeightMB {
		t.Fatal("zero-batch memory should equal weights")
	}
	if s.MemoryMB(64) <= s.MemoryMB(16) {
		t.Fatal("memory must grow with batch")
	}
	if s.MemoryMB(-5) != s.WeightMB {
		t.Fatal("negative batch should clamp to zero")
	}
	task, _ := TaskByName("BERT-train")
	// Adam-style optimizers at least quadruple the weight footprint.
	if task.MemoryMB() < task.WeightMB*4 {
		t.Fatalf("BERT-train memory %v too small vs weights %v", task.MemoryMB(), task.WeightMB)
	}
}

func TestArchVector(t *testing.T) {
	var b ArchBuilder
	b.Record(LayerConv, 3)
	b.Record(LayerConv, 2)
	b.Record(LayerKind(99), 4) // unknown folds into other
	b.Record(LayerLinear, -1)  // ignored
	a := b.Arch()
	if a.Count(LayerConv) != 5 {
		t.Fatalf("conv count %d, want 5", a.Count(LayerConv))
	}
	if a.Count(LayerOther) != 4 {
		t.Fatalf("other count %d, want 4", a.Count(LayerOther))
	}
	if a.Total() != 9 {
		t.Fatalf("total %d, want 9", a.Total())
	}
	if a.Count(LayerKind(-1)) != 0 {
		t.Fatal("out-of-range Count should be 0")
	}
}

func TestArchAdd(t *testing.T) {
	a := archOf(map[LayerKind]int{LayerConv: 2})
	b := archOf(map[LayerKind]int{LayerConv: 3, LayerFC: 1})
	sum := a.Add(b)
	if sum.Count(LayerConv) != 5 || sum.Count(LayerFC) != 1 {
		t.Fatalf("Add result %v", sum)
	}
}

func TestArchFeatures(t *testing.T) {
	a := archOf(map[LayerKind]int{LayerConv: 2, LayerPooling: 7})
	f := a.Features()
	if len(f) != int(NumLayerKinds) {
		t.Fatalf("feature width %d", len(f))
	}
	if f[LayerConv] != 2 || f[LayerPooling] != 7 {
		t.Fatalf("features %v", f)
	}
}

func TestKindFromName(t *testing.T) {
	cases := map[string]LayerKind{
		"Conv2d":            LayerConv,
		"Linear":            LayerLinear,
		"ReLU":              LayerActivation,
		"Embedding":         LayerEmbedding,
		"encoder":           LayerEncoder,
		"decoder":           LayerDecoder,
		"Flatten":           LayerFlatten,
		"BatchNorm2d":       LayerBatchNorm,
		"fc":                LayerFC,
		"AdaptiveAvgPool2d": LayerPooling,
		"FireModule":        LayerOther,
	}
	for name, want := range cases {
		if got := KindFromName(name); got != want {
			t.Fatalf("KindFromName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestLayerKindString(t *testing.T) {
	if LayerConv.String() != "conv" || LayerOther.String() != "other_layers" {
		t.Fatal("layer names wrong")
	}
	if LayerKind(99).String() == "" {
		t.Fatal("out-of-range String empty")
	}
}

func TestSearchSpaces(t *testing.T) {
	if got := BatchSizes(); len(got) != 6 || got[0] != 16 || got[5] != 512 {
		t.Fatalf("BatchSizes = %v", got)
	}
	grid := GPUGrid()
	if len(grid) != 9 || grid[0] != 0.1 || grid[8] != 0.9 {
		t.Fatalf("GPUGrid = %v", grid)
	}
}

func TestSizeClassString(t *testing.T) {
	if SizeS.String() != "S" || SizeXL.String() != "XL" {
		t.Fatal("size class strings wrong")
	}
	if SizeClass(9).String() == "" {
		t.Fatal("out-of-range size class String empty")
	}
}

func TestCatalogReturnsFreshSlices(t *testing.T) {
	a := Services()
	a[0].SLOms = 1
	if Services()[0].SLOms == 1 {
		t.Fatal("Services returns shared state")
	}
	b := Tasks()
	b[0].BaseIterMs = 1
	if Tasks()[0].BaseIterMs == 1 {
		t.Fatal("Tasks returns shared state")
	}
}
