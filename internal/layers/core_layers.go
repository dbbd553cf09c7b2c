package layers

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// ---------------------------------------------------------------------------
// Dense

// DenseConfig configures a Dense layer.
type DenseConfig struct {
	// Units is the output dimensionality. Required.
	Units int
	// Activation is a Keras activation identifier ("relu", "softmax", ...).
	Activation string
	// UseBias adds a bias vector; defaults to true.
	UseBias *bool
	// InputShape, when set on the first layer, defines the model input
	// shape (excluding batch), as in Listing 1's inputShape: [1].
	InputShape []int
	// Name overrides the auto-generated layer name.
	Name string
	// Initializer selects the kernel initializer: "glorot_uniform"
	// (default) or "he_normal".
	Initializer string
}

// Dense is a fully connected layer: activation(x·kernel + bias).
type Dense struct {
	name   string
	cfg    DenseConfig
	kernel *core.Variable
	bias   *core.Variable
	built  bool
}

// NewDense creates a Dense layer (tf.layers.dense in Listing 1).
func NewDense(cfg DenseConfig) *Dense {
	if cfg.Units <= 0 {
		panic(&core.OpError{Kernel: "Dense", Err: fmt.Errorf("units must be positive, got %d", cfg.Units)})
	}
	if _, err := ActivationKernel(cfg.Activation); err != nil {
		panic(&core.OpError{Kernel: "Dense", Err: err})
	}
	name := cfg.Name
	if name == "" {
		name = autoName("dense")
	}
	return &Dense{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// ClassName implements Layer.
func (l *Dense) ClassName() string { return "Dense" }

func (l *Dense) useBias() bool { return l.cfg.UseBias == nil || *l.cfg.UseBias }

// Build implements Layer.
func (l *Dense) Build(inputShape []int) error {
	if l.built {
		return nil
	}
	if len(inputShape) != 1 {
		return fmt.Errorf("layers: Dense %q expects rank-1 per-example input, got %v", l.name, inputShape)
	}
	in := inputShape[0]
	l.kernel = newWeight(l.name+"/kernel", []int{in, l.cfg.Units}, in, l.cfg.Units, l.cfg.Initializer)
	if l.useBias() {
		l.bias = newConstWeight(l.name+"/bias", []int{l.cfg.Units}, 0, true)
	}
	l.built = true
	return nil
}

// OutputShape implements Layer.
func (l *Dense) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 1 {
		return nil, fmt.Errorf("layers: Dense %q expects rank-1 per-example input, got %v", l.name, inputShape)
	}
	return []int{l.cfg.Units}, nil
}

// Call implements Layer.
func (l *Dense) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := ops.MatMul(x, l.kernel.Value(), false, false)
	if l.bias != nil {
		y = ops.Add(y, l.bias.Value())
	}
	return applyActivation(l.cfg.Activation, y)
}

// Weights implements Layer.
func (l *Dense) Weights() []*core.Variable {
	if l.bias != nil {
		return []*core.Variable{l.kernel, l.bias}
	}
	if l.kernel != nil {
		return []*core.Variable{l.kernel}
	}
	return nil
}

// Config implements Layer.
func (l *Dense) Config() map[string]any {
	return map[string]any{
		"name": l.name, "units": l.cfg.Units, "activation": l.cfg.Activation,
		"use_bias": l.useBias(), "input_shape": l.cfg.InputShape,
		"kernel_initializer": l.cfg.Initializer,
	}
}

// ---------------------------------------------------------------------------
// Flatten

// Flatten reshapes per-example input to rank 1.
type Flatten struct {
	name       string
	InputShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{name: autoName("flatten")} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// ClassName implements Layer.
func (l *Flatten) ClassName() string { return "Flatten" }

// Build implements Layer.
func (l *Flatten) Build(inputShape []int) error { return nil }

// OutputShape implements Layer.
func (l *Flatten) OutputShape(inputShape []int) ([]int, error) {
	return []int{tensor.ShapeSize(inputShape)}, nil
}

// Call implements Layer.
func (l *Flatten) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	batch := x.Shape[0]
	return ops.Reshape(x, batch, x.Size()/batch)
}

// Weights implements Layer.
func (l *Flatten) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *Flatten) Config() map[string]any {
	return map[string]any{"name": l.name, "input_shape": l.InputShape}
}

// ---------------------------------------------------------------------------
// Activation layer

// Activation applies a named activation function.
type Activation struct {
	name       string
	activation string
}

// NewActivation creates an Activation layer.
func NewActivation(activation string) *Activation {
	if _, err := ActivationKernel(activation); err != nil {
		panic(&core.OpError{Kernel: "Activation", Err: err})
	}
	return &Activation{name: autoName("activation"), activation: activation}
}

// Name implements Layer.
func (l *Activation) Name() string { return l.name }

// ClassName implements Layer.
func (l *Activation) ClassName() string { return "Activation" }

// Build implements Layer.
func (l *Activation) Build(inputShape []int) error { return nil }

// OutputShape implements Layer.
func (l *Activation) OutputShape(inputShape []int) ([]int, error) {
	return tensor.CopyShape(inputShape), nil
}

// Call implements Layer.
func (l *Activation) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	return applyActivation(l.activation, x)
}

// Weights implements Layer.
func (l *Activation) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *Activation) Config() map[string]any {
	return map[string]any{"name": l.name, "activation": l.activation}
}

// ---------------------------------------------------------------------------
// Dropout

// Dropout randomly zeroes a fraction of inputs during training and scales
// the survivors, a no-op at inference.
type Dropout struct {
	name string
	rate float64
	rng  *rand.Rand
	// mask is the scratch a training call draws its mask into: a backend's
	// Write copies it, so one slice serves every step.
	mask []float32
}

// NewDropout creates a Dropout layer with the given drop rate in [0, 1).
func NewDropout(rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(&core.OpError{Kernel: "Dropout", Err: fmt.Errorf("rate must be in [0,1), got %g", rate)})
	}
	return &Dropout{name: autoName("dropout"), rate: rate, rng: rand.New(rand.NewSource(1234))}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// ClassName implements Layer.
func (l *Dropout) ClassName() string { return "Dropout" }

// Build implements Layer.
func (l *Dropout) Build(inputShape []int) error { return nil }

// OutputShape implements Layer.
func (l *Dropout) OutputShape(inputShape []int) ([]int, error) {
	return tensor.CopyShape(inputShape), nil
}

// Call implements Layer.
func (l *Dropout) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || l.rate == 0 {
		return x
	}
	keep := 1 - l.rate
	if cap(l.mask) < x.Size() {
		l.mask = make([]float32, x.Size())
	}
	mask := l.mask[:x.Size()]
	for i := range mask {
		mask[i] = 0
		if l.rng.Float64() < keep {
			mask[i] = float32(1 / keep)
		}
	}
	return ops.Mul(x, ops.FromValues(mask, x.Shape...))
}

// Weights implements Layer.
func (l *Dropout) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *Dropout) Config() map[string]any {
	return map[string]any{"name": l.name, "rate": l.rate}
}

// ---------------------------------------------------------------------------
// Reshape

// Reshape reshapes the per-example dimensions.
type Reshape struct {
	name   string
	target []int
}

// NewReshape creates a Reshape layer with the per-example target shape.
func NewReshape(target []int) *Reshape {
	return &Reshape{name: autoName("reshape"), target: tensor.CopyShape(target)}
}

// Name implements Layer.
func (l *Reshape) Name() string { return l.name }

// ClassName implements Layer.
func (l *Reshape) ClassName() string { return "Reshape" }

// Build implements Layer.
func (l *Reshape) Build(inputShape []int) error {
	if tensor.ShapeSize(inputShape) != tensor.ShapeSize(l.target) {
		return fmt.Errorf("layers: Reshape %q cannot reshape %v to %v", l.name, inputShape, l.target)
	}
	return nil
}

// OutputShape implements Layer.
func (l *Reshape) OutputShape(inputShape []int) ([]int, error) {
	if tensor.ShapeSize(inputShape) != tensor.ShapeSize(l.target) {
		return nil, fmt.Errorf("layers: Reshape %q cannot reshape %v to %v", l.name, inputShape, l.target)
	}
	return tensor.CopyShape(l.target), nil
}

// Call implements Layer.
func (l *Reshape) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	shape := append([]int{x.Shape[0]}, l.target...)
	return ops.Reshape(x, shape...)
}

// Weights implements Layer.
func (l *Reshape) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *Reshape) Config() map[string]any {
	return map[string]any{"name": l.name, "target_shape": l.target}
}

func init() {
	RegisterLayerClass("Dense", func(c map[string]any) (Layer, error) {
		useBias := cfgBool(c, "use_bias", true)
		return NewDense(DenseConfig{
			Units:       cfgInt(c, "units", 0),
			Activation:  cfgString(c, "activation", ""),
			UseBias:     &useBias,
			InputShape:  cfgInts(c, "input_shape", nil),
			Name:        cfgString(c, "name", ""),
			Initializer: cfgString(c, "kernel_initializer", ""),
		}), nil
	})
	RegisterLayerClass("Flatten", func(c map[string]any) (Layer, error) {
		l := NewFlatten()
		l.InputShape = cfgInts(c, "input_shape", nil)
		return l, nil
	})
	RegisterLayerClass("Activation", func(c map[string]any) (Layer, error) {
		return NewActivation(cfgString(c, "activation", "linear")), nil
	})
	RegisterLayerClass("Dropout", func(c map[string]any) (Layer, error) {
		return NewDropout(cfgFloat(c, "rate", 0.5)), nil
	})
	RegisterLayerClass("Reshape", func(c map[string]any) (Layer, error) {
		return NewReshape(cfgInts(c, "target_shape", nil)), nil
	})
}
