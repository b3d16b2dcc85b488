package extract

import (
	"strings"
	"testing"

	"mudi/internal/model"
)

const sampleGraph = `{
  "format": "onnx",
  "name": "resnet-ish",
  "nodes": [
    {"op": "Conv"}, {"op": "BatchNormalization"}, {"op": "Relu"},
    {"op": "Conv"}, {"op": "BatchNormalization"}, {"op": "Relu"},
    {"op": "MaxPool"}, {"op": "GlobalAveragePool"},
    {"op": "Flatten"}, {"op": "Gemm"}, {"op": "Softmax"},
    {"op": "MysteryFusedOp"}
  ]
}`

func TestFromGraphFile(t *testing.T) {
	arch, name, err := FromGraphFile(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	if name != "resnet-ish" {
		t.Fatalf("name %q", name)
	}
	if got := arch.Count(model.LayerConv); got != 2 {
		t.Fatalf("conv %d, want 2", got)
	}
	if got := arch.Count(model.LayerBatchNorm); got != 2 {
		t.Fatalf("bn %d, want 2", got)
	}
	if got := arch.Count(model.LayerActivation); got != 3 {
		t.Fatalf("activations %d, want 3 (2 relu + softmax)", got)
	}
	if got := arch.Count(model.LayerPooling); got != 2 {
		t.Fatalf("pooling %d, want 2", got)
	}
	if got := arch.Count(model.LayerLinear); got != 1 {
		t.Fatalf("linear %d, want 1 (gemm)", got)
	}
	if got := arch.Count(model.LayerFlatten); got != 1 {
		t.Fatalf("flatten %d, want 1", got)
	}
	if got := arch.Count(model.LayerOther); got != 1 {
		t.Fatalf("other %d, want 1 (the mystery op)", got)
	}
}

func TestFromGraphFileTransformerOps(t *testing.T) {
	g := `{"format":"onnx","name":"bert-ish","nodes":[
		{"op":"Gather"},{"op":"Attention"},{"op":"Attention"},
		{"op":"LayerNormalization"},{"op":"MatMul"},{"op":"Gelu"}]}`
	arch, _, err := FromGraphFile(strings.NewReader(g))
	if err != nil {
		t.Fatal(err)
	}
	if arch.Count(model.LayerEmbedding) != 1 || arch.Count(model.LayerEncoder) != 2 {
		t.Fatalf("transformer mapping wrong: %v", arch)
	}
	if arch.Count(model.LayerBatchNorm) != 1 || arch.Count(model.LayerLinear) != 1 || arch.Count(model.LayerActivation) != 1 {
		t.Fatalf("transformer mapping wrong: %v", arch)
	}
}

func TestFromGraphFileErrors(t *testing.T) {
	if _, _, err := FromGraphFile(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, _, err := FromGraphFile(strings.NewReader(`{"format":"onnx","name":"empty","nodes":[]}`)); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestTracerDeduplicatesModules(t *testing.T) {
	tr := NewTracer()
	// One mini-batch invokes each layer once per step, but loops (e.g.
	// an RNN unrolled 10 times) hit the same module repeatedly.
	for step := 0; step < 10; step++ {
		tr.OnModule("embed", "Embedding")
		tr.OnModule("rnn.cell", "LSTMCell")
		tr.OnModule("head", "Linear")
	}
	arch := tr.Arch()
	if tr.Modules() != 3 {
		t.Fatalf("modules %d, want 3", tr.Modules())
	}
	if arch.Count(model.LayerEmbedding) != 1 || arch.Count(model.LayerLinear) != 1 {
		t.Fatalf("dedup failed: %v", arch)
	}
	if arch.Count(model.LayerOther) != 1 { // LSTMCell folds into other
		t.Fatalf("other %d, want 1", arch.Count(model.LayerOther))
	}
}

func TestTracerDistinctInstances(t *testing.T) {
	tr := NewTracer()
	tr.OnModule("layer1.conv", "Conv2d")
	tr.OnModule("layer2.conv", "Conv2d")
	tr.OnModule("", "ReLU") // anonymous module keys on its type
	if got := tr.Arch().Count(model.LayerConv); got != 2 {
		t.Fatalf("conv %d, want 2 distinct instances", got)
	}
}

func TestTracedArchPredictsLikeCatalog(t *testing.T) {
	// Tracing a module stream shaped like the catalog's VGG16 must
	// yield the catalog's exact vector — the contract that traced
	// architectures are interchangeable with file-extracted ones.
	vgg, _ := model.TaskByName("VGG16")
	tr := NewTracer()
	for i := 0; i < vgg.Arch.Count(model.LayerConv); i++ {
		tr.OnModule(formatID("conv", i), "Conv2d")
	}
	for i := 0; i < vgg.Arch.Count(model.LayerActivation); i++ {
		tr.OnModule(formatID("relu", i), "ReLU")
	}
	for i := 0; i < vgg.Arch.Count(model.LayerPooling); i++ {
		tr.OnModule(formatID("pool", i), "MaxPool2d")
	}
	for i := 0; i < vgg.Arch.Count(model.LayerFC); i++ {
		tr.OnModule(formatID("fc", i), "fc")
	}
	tr.OnModule("flatten", "Flatten")
	if tr.Arch() != vgg.Arch {
		t.Fatalf("traced arch %v != catalog %v", tr.Arch(), vgg.Arch)
	}
}

func formatID(base string, i int) string {
	return base + "." + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
