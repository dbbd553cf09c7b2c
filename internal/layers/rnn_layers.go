package layers

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// SimpleRNNConfig configures a SimpleRNN layer.
type SimpleRNNConfig struct {
	// Units is the hidden-state width. Required.
	Units int
	// Activation defaults to "tanh".
	Activation string
	// ReturnSequences emits the whole hidden sequence instead of the
	// final state.
	ReturnSequences bool
	// InputShape, when set on the first layer, is [timeSteps, features].
	InputShape []int
	// Name overrides the auto-generated layer name.
	Name string
}

// SimpleRNN is an Elman recurrent layer:
//
//	h_t = act(x_t · Wx + h_{t-1} · Wh + b)
//
// Its forward pass is an ordinary Go loop over time steps — the point the
// paper makes for eager differentiation engines (§3.5): "users can use
// native if and while loops instead of specialized control flow APIs".
// The gradient tape records each unrolled step, so backpropagation through
// time needs no special machinery.
type SimpleRNN struct {
	name string
	cfg  SimpleRNNConfig
	wx   *core.Variable
	wh   *core.Variable
	bias *core.Variable
	weightVars
}

// NewSimpleRNN creates a SimpleRNN layer.
func NewSimpleRNN(cfg SimpleRNNConfig) *SimpleRNN {
	if cfg.Units <= 0 {
		panic(&core.OpError{Kernel: "SimpleRNN", Err: fmt.Errorf("units must be positive, got %d", cfg.Units)})
	}
	if cfg.Activation == "" {
		cfg.Activation = "tanh"
	}
	if _, err := ActivationKernel(cfg.Activation); err != nil {
		panic(&core.OpError{Kernel: "SimpleRNN", Err: err})
	}
	name := cfg.Name
	if name == "" {
		name = autoName("simple_rnn")
	}
	return &SimpleRNN{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *SimpleRNN) Name() string { return l.name }

// ClassName implements Layer.
func (l *SimpleRNN) ClassName() string { return "SimpleRNN" }

func (l *SimpleRNN) weightSpecs(inputShape []int) ([]weightSpec, error) {
	if len(inputShape) != 2 {
		return nil, fmt.Errorf("layers: SimpleRNN %q expects [timeSteps, features] input, got %v", l.name, inputShape)
	}
	features, units := inputShape[1], l.cfg.Units
	return []weightSpec{
		randomWeight(l.name+"/kernel", []int{features, units}, features, units, ""),
		randomWeight(l.name+"/recurrent_kernel", []int{units, units}, units, units, ""),
		constWeight(l.name+"/bias", []int{units}, 0, true),
	}, nil
}

// Build implements Layer.
func (l *SimpleRNN) Build(inputShape []int) error {
	if err := l.build(l, inputShape); err != nil {
		return err
	}
	l.wx, l.wh, l.bias = l.vars[0], l.vars[1], l.vars[2]
	return nil
}

// OutputShape implements Layer.
func (l *SimpleRNN) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 2 {
		return nil, fmt.Errorf("layers: SimpleRNN %q expects [timeSteps, features] input, got %v", l.name, inputShape)
	}
	if l.cfg.ReturnSequences {
		return []int{inputShape[0], l.cfg.Units}, nil
	}
	return []int{l.cfg.Units}, nil
}

// Call implements Layer. x is [batch, timeSteps, features].
func (l *SimpleRNN) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	batch := x.Shape[0]
	steps := x.Shape[1]
	h := ops.Zeros(batch, l.cfg.Units)
	var seq []*tensor.Tensor
	// A plain Go loop over time: each iteration is recorded eagerly on
	// the tape (§3.5).
	for t := 0; t < steps; t++ {
		xt := ops.Squeeze(ops.Slice(x, []int{0, t, 0}, []int{batch, 1, x.Shape[2]}), 1)
		z := ops.Add(ops.Add(
			ops.MatMul(xt, l.wx.Value(), false, false),
			ops.MatMul(h, l.wh.Value(), false, false)),
			l.bias.Value())
		h = applyActivation(l.cfg.Activation, z)
		if l.cfg.ReturnSequences {
			seq = append(seq, ops.ExpandDims(h, 1))
		}
	}
	if l.cfg.ReturnSequences {
		return ops.Concat(seq, 1)
	}
	return h
}

// Config implements Layer.
func (l *SimpleRNN) Config() map[string]any {
	return map[string]any{
		"name": l.name, "units": l.cfg.Units, "activation": l.cfg.Activation,
		"return_sequences": l.cfg.ReturnSequences, "input_shape": l.cfg.InputShape,
	}
}

func init() {
	RegisterLayerClass("SimpleRNN", func(c map[string]any) (Layer, error) {
		return NewSimpleRNN(SimpleRNNConfig{
			Units:           cfgInt(c, "units", 0),
			Activation:      cfgString(c, "activation", "tanh"),
			ReturnSequences: cfgBool(c, "return_sequences", false),
			InputShape:      cfgInts(c, "input_shape", nil),
			Name:            cfgString(c, "name", ""),
		}), nil
	})
}
