// Package model is the DL workload catalog: the six inference services
// of Tab. 1 with their SLOs, the nine training tasks of Tab. 3 with
// their size classes and trace fractions, and the network-architecture
// layer vectors of Fig. 7 that the Interference Modeler uses as
// features.
package model

import "fmt"

// LayerKind enumerates the layer families Mudi extracts from a model's
// computation graph (Fig. 7). Unpopular layer types are folded into
// LayerOther to keep the feature space small.
type LayerKind int

// The Fig. 7 layer families, in the paper's order.
const (
	LayerConv LayerKind = iota
	LayerLinear
	LayerActivation
	LayerEmbedding
	LayerEncoder
	LayerDecoder
	LayerFlatten
	LayerBatchNorm
	LayerFC
	LayerPooling
	LayerOther
	NumLayerKinds
)

var layerNames = [NumLayerKinds]string{
	"conv", "linear", "activations", "embeddings", "encoder", "decoder",
	"flatten", "batch_normalization", "fc", "pooling", "other_layers",
}

// String returns the paper's name for the layer kind.
func (k LayerKind) String() string {
	if k < 0 || k >= NumLayerKinds {
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
	return layerNames[k]
}

// Arch is a network-architecture feature vector: the count of each
// layer kind in a model's graph. This is the Ψ of §4.1.2.
type Arch [NumLayerKinds]int

// Total returns the total number of layers.
func (a Arch) Total() int {
	sum := 0
	for _, n := range a {
		sum += n
	}
	return sum
}

// Add returns the element-wise sum — used by Mudi-more (§5.5), which
// designates the cumulative feature layers of all co-located training
// tasks as Ψ.
func (a Arch) Add(b Arch) Arch {
	var out Arch
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Features renders the vector as float64s for the learners.
func (a Arch) Features() []float64 {
	out := make([]float64, NumLayerKinds)
	for i, n := range a {
		out[i] = float64(n)
	}
	return out
}

// Count returns the count for one layer kind.
func (a Arch) Count(k LayerKind) int {
	if k < 0 || k >= NumLayerKinds {
		return 0
	}
	return a[k]
}

// ArchBuilder assembles an Arch incrementally — the Training Agent uses
// it while tracing a dynamic-graph model's modules for one mini-batch
// (§4.2).
type ArchBuilder struct {
	arch Arch
}

// Record adds n layers of the given kind; unknown kinds fold into
// LayerOther, mirroring the paper's treatment of unpopular layers.
func (b *ArchBuilder) Record(k LayerKind, n int) {
	if n <= 0 {
		return
	}
	if k < 0 || k >= NumLayerKinds {
		k = LayerOther
	}
	b.arch[k] += n
}

// Arch returns the assembled vector.
func (b *ArchBuilder) Arch() Arch { return b.arch }

// KindFromName maps a framework module name to a LayerKind. Names not
// recognized map to LayerOther (extraction layers, fire modules, ...).
func KindFromName(name string) LayerKind {
	switch name {
	case "conv", "conv1d", "conv2d", "conv3d", "Conv2d", "Conv1d":
		return LayerConv
	case "linear", "Linear", "dense", "Dense":
		return LayerLinear
	case "relu", "ReLU", "gelu", "GELU", "tanh", "Tanh", "sigmoid", "Sigmoid", "activation", "LeakyReLU", "SiLU":
		return LayerActivation
	case "embedding", "Embedding", "embeddings":
		return LayerEmbedding
	case "encoder", "EncoderLayer", "TransformerEncoderLayer":
		return LayerEncoder
	case "decoder", "DecoderLayer", "TransformerDecoderLayer":
		return LayerDecoder
	case "flatten", "Flatten":
		return LayerFlatten
	case "batchnorm", "BatchNorm1d", "BatchNorm2d", "batch_normalization", "LayerNorm":
		return LayerBatchNorm
	case "fc", "classifier", "head":
		return LayerFC
	case "pool", "maxpool", "avgpool", "MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d", "pooling":
		return LayerPooling
	default:
		return LayerOther
	}
}
