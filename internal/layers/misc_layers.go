package layers

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// ---------------------------------------------------------------------------
// Embedding

// EmbeddingConfig configures an Embedding layer.
type EmbeddingConfig struct {
	// InputDim is the vocabulary size. Required.
	InputDim int
	// OutputDim is the embedding width. Required.
	OutputDim int
	// InputLength, when set on the first layer, defines the model input
	// shape (a sequence of InputLength token ids).
	InputLength int
	// Name overrides the auto-generated layer name.
	Name string
}

// Embedding maps integer token ids to dense vectors via a trainable
// lookup table. Gradients flow through the gather (scatter-add on the
// table), so embeddings train like any other weight.
type Embedding struct {
	name  string
	cfg   EmbeddingConfig
	table *core.Variable
	weightVars
}

// NewEmbedding creates an Embedding layer.
func NewEmbedding(cfg EmbeddingConfig) *Embedding {
	if cfg.InputDim <= 0 || cfg.OutputDim <= 0 {
		panic(&core.OpError{Kernel: "Embedding", Err: fmt.Errorf("inputDim and outputDim must be positive, got %d and %d", cfg.InputDim, cfg.OutputDim)})
	}
	name := cfg.Name
	if name == "" {
		name = autoName("embedding")
	}
	return &Embedding{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *Embedding) Name() string { return l.name }

// ClassName implements Layer.
func (l *Embedding) ClassName() string { return "Embedding" }

func (l *Embedding) weightSpecs(inputShape []int) ([]weightSpec, error) {
	if len(inputShape) != 1 {
		return nil, fmt.Errorf("layers: Embedding %q expects a rank-1 sequence of ids, got %v", l.name, inputShape)
	}
	return []weightSpec{randomWeight(l.name+"/embeddings", []int{l.cfg.InputDim, l.cfg.OutputDim},
		l.cfg.InputDim, l.cfg.OutputDim, "")}, nil
}

// Build implements Layer.
func (l *Embedding) Build(inputShape []int) error {
	if err := l.build(l, inputShape); err != nil {
		return err
	}
	l.table = l.vars[0]
	return nil
}

// OutputShape implements Layer.
func (l *Embedding) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 1 {
		return nil, fmt.Errorf("layers: Embedding %q expects a rank-1 sequence of ids, got %v", l.name, inputShape)
	}
	return []int{inputShape[0], l.cfg.OutputDim}, nil
}

// Call implements Layer. x is [batch, seqLen] integer ids; the output is
// [batch, seqLen, outputDim].
func (l *Embedding) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	batch, seqLen := x.Shape[0], x.Shape[1]
	flat := ops.Reshape(x, batch*seqLen)
	gathered := ops.Gather(l.table.Value(), flat, 0)
	return ops.Reshape(gathered, batch, seqLen, l.cfg.OutputDim)
}

// Config implements Layer.
func (l *Embedding) Config() map[string]any {
	var inputShape []int
	if l.cfg.InputLength > 0 {
		inputShape = []int{l.cfg.InputLength}
	}
	return map[string]any{
		"name": l.name, "input_dim": l.cfg.InputDim, "output_dim": l.cfg.OutputDim,
		"input_shape": inputShape,
	}
}

// ---------------------------------------------------------------------------
// ZeroPadding2D

// ZeroPadding2D pads the spatial dimensions of NHWC input with zeros;
// MobileNet-style stem convolutions use it for explicit padding.
type ZeroPadding2D struct {
	name     string
	paddings [4]int // top, bottom, left, right
}

// NewZeroPadding2D creates a padding layer; pads is [top, bottom, left,
// right] (a single element means uniform padding).
func NewZeroPadding2D(pads []int) *ZeroPadding2D {
	l := &ZeroPadding2D{name: autoName("zero_padding2d")}
	switch len(pads) {
	case 1:
		l.paddings = [4]int{pads[0], pads[0], pads[0], pads[0]}
	case 4:
		copy(l.paddings[:], pads)
	default:
		panic(&core.OpError{Kernel: "ZeroPadding2D", Err: fmt.Errorf("pads must have 1 or 4 entries, got %v", pads)})
	}
	return l
}

// Name implements Layer.
func (l *ZeroPadding2D) Name() string { return l.name }

// ClassName implements Layer.
func (l *ZeroPadding2D) ClassName() string { return "ZeroPadding2D" }

// Build implements Layer.
func (l *ZeroPadding2D) Build(inputShape []int) error { return nil }

// OutputShape implements Layer.
func (l *ZeroPadding2D) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: ZeroPadding2D expects [h w c] input, got %v", inputShape)
	}
	return []int{
		inputShape[0] + l.paddings[0] + l.paddings[1],
		inputShape[1] + l.paddings[2] + l.paddings[3],
		inputShape[2],
	}, nil
}

// Call implements Layer.
func (l *ZeroPadding2D) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	return ops.Pad(x, [][2]int{
		{0, 0},
		{l.paddings[0], l.paddings[1]},
		{l.paddings[2], l.paddings[3]},
		{0, 0},
	}, 0)
}

// Weights implements Layer.
func (l *ZeroPadding2D) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *ZeroPadding2D) Config() map[string]any {
	return map[string]any{"name": l.name, "padding": l.paddings[:]}
}

func init() {
	RegisterLayerClass("Embedding", func(c map[string]any) (Layer, error) {
		inputLength := 0
		if s := cfgInts(c, "input_shape", nil); len(s) == 1 {
			inputLength = s[0]
		}
		return NewEmbedding(EmbeddingConfig{
			InputDim:    cfgInt(c, "input_dim", 0),
			OutputDim:   cfgInt(c, "output_dim", 0),
			InputLength: inputLength,
			Name:        cfgString(c, "name", ""),
		}), nil
	})
	RegisterLayerClass("ZeroPadding2D", func(c map[string]any) (Layer, error) {
		l := NewZeroPadding2D(cfgInts(c, "padding", []int{1}))
		l.name = cfgString(c, "name", l.name)
		return l, nil
	})
}
