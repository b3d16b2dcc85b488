// Package extract implements the Training Agent's network-architecture
// extraction (§4.2): for models with static computation graphs
// (ONNX/TensorFlow) the layer counts are read directly from the model
// file; for dynamic-graph models (PyTorch) the agent runs one
// mini-batch and traces the invoked modules. Both paths produce the
// Fig. 7 layer-count vector Ψ the Interference Predictor consumes.
package extract

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mudi/internal/model"
)

// GraphFile is the on-disk graph schema this package reads — a
// simplified ONNX-style node list.
type GraphFile struct {
	Format string      `json:"format"` // "onnx", "tensorflow", ...
	Name   string      `json:"name"`
	Nodes  []GraphNode `json:"nodes"`
}

// GraphNode is one operator in the graph.
type GraphNode struct {
	Op   string `json:"op"`
	Name string `json:"name,omitempty"`
}

// FromGraphFile parses a static-graph model file and returns its layer
// vector — the ONNX/TensorFlow path ("Training Agent directly extracts
// their network layers from the model files").
func FromGraphFile(r io.Reader) (model.Arch, string, error) {
	var g GraphFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&g); err != nil {
		return model.Arch{}, "", fmt.Errorf("extract: parsing graph file: %w", err)
	}
	if len(g.Nodes) == 0 {
		return model.Arch{}, "", fmt.Errorf("extract: graph %q has no nodes", g.Name)
	}
	var b model.ArchBuilder
	for _, n := range g.Nodes {
		b.Record(kindFromOp(n.Op), 1)
	}
	return b.Arch(), g.Name, nil
}

// kindFromOp maps ONNX-style operator names onto the Fig. 7 families,
// falling back to the framework-module mapping and then to other_layers.
func kindFromOp(op string) model.LayerKind {
	switch strings.ToLower(op) {
	case "conv", "convtranspose", "conv1d", "conv2d", "conv3d", "depthwiseconv2d":
		return model.LayerConv
	case "gemm", "matmul", "linear", "dense":
		return model.LayerLinear
	case "relu", "leakyrelu", "gelu", "sigmoid", "tanh", "softmax", "silu", "elu", "hardswish":
		return model.LayerActivation
	case "gather", "embedding", "embedlayernormalization":
		return model.LayerEmbedding
	case "attention", "multiheadattention", "transformerencoder", "encoderlayer":
		return model.LayerEncoder
	case "transformerdecoder", "decoderlayer":
		return model.LayerDecoder
	case "flatten", "reshape", "squeeze":
		return model.LayerFlatten
	case "batchnormalization", "layernormalization", "instancenormalization", "groupnorm":
		return model.LayerBatchNorm
	case "maxpool", "averagepool", "globalaveragepool", "globalmaxpool", "lppool":
		return model.LayerPooling
	default:
		return model.KindFromName(op)
	}
}

// Tracer is the dynamic-graph path: the training wrapper reports each
// module invocation during one traced mini-batch ("Mudi ... runs the
// training task on it for a mini-batch to trace the invoked modules").
// Repeat invocations within the batch are deduplicated per module name
// so loops over the same layer do not inflate the counts.
type Tracer struct {
	builder model.ArchBuilder
	seen    map[string]bool
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{seen: make(map[string]bool)}
}

// OnModule records one module invocation. moduleID distinguishes layer
// instances (e.g. "layer3.conv2"); typeName is the framework class
// (e.g. "Conv2d").
func (t *Tracer) OnModule(moduleID, typeName string) {
	if moduleID == "" {
		moduleID = typeName
	}
	if t.seen[moduleID] {
		return
	}
	t.seen[moduleID] = true
	t.builder.Record(model.KindFromName(typeName), 1)
}

// Modules returns the number of distinct modules traced.
func (t *Tracer) Modules() int { return len(t.seen) }

// Arch returns the assembled layer vector.
func (t *Tracer) Arch() model.Arch { return t.builder.Arch() }
