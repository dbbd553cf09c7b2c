package layers

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// BatchNormConfig configures a BatchNormalization layer.
type BatchNormConfig struct {
	// Momentum for the moving statistics; 0 means 0.99.
	Momentum float64
	// Epsilon for numeric stability; 0 means 1e-3.
	Epsilon float64
	// Center adds the beta offset (default true via pointer semantics).
	Center *bool
	// Scale multiplies by gamma (default true).
	Scale *bool
	// Name overrides the auto-generated layer name.
	Name string
}

// BatchNormalization normalizes activations over the batch during training
// and with moving statistics at inference, the standard Keras semantics.
// It normalizes along the last axis.
type BatchNormalization struct {
	name string
	cfg  BatchNormConfig

	gamma      *core.Variable
	beta       *core.Variable
	movingMean *core.Variable
	movingVar  *core.Variable
	weightVars
}

// NewBatchNormalization creates a BatchNormalization layer.
func NewBatchNormalization(cfg BatchNormConfig) *BatchNormalization {
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.99
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	name := cfg.Name
	if name == "" {
		name = autoName("batch_normalization")
	}
	return &BatchNormalization{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *BatchNormalization) Name() string { return l.name }

// ClassName implements Layer.
func (l *BatchNormalization) ClassName() string { return "BatchNormalization" }

func (l *BatchNormalization) center() bool { return l.cfg.Center == nil || *l.cfg.Center }
func (l *BatchNormalization) scale() bool  { return l.cfg.Scale == nil || *l.cfg.Scale }

func (l *BatchNormalization) weightSpecs(inputShape []int) ([]weightSpec, error) {
	if len(inputShape) == 0 {
		return nil, fmt.Errorf("layers: BatchNormalization %q needs rank >= 1 input", l.name)
	}
	c := []int{inputShape[len(inputShape)-1]}
	var specs []weightSpec
	if l.scale() {
		specs = append(specs, constWeight(l.name+"/gamma", c, 1, true))
	}
	if l.center() {
		specs = append(specs, constWeight(l.name+"/beta", c, 0, true))
	}
	return append(specs,
		constWeight(l.name+"/moving_mean", c, 0, false),
		constWeight(l.name+"/moving_variance", c, 1, false)), nil
}

// Build implements Layer.
func (l *BatchNormalization) Build(inputShape []int) error {
	if err := l.build(l, inputShape); err != nil {
		return err
	}
	vars := l.vars
	if l.scale() {
		l.gamma, vars = vars[0], vars[1:]
	}
	if l.center() {
		l.beta, vars = vars[0], vars[1:]
	}
	l.movingMean, l.movingVar = vars[0], vars[1]
	return nil
}

// OutputShape implements Layer.
func (l *BatchNormalization) OutputShape(inputShape []int) ([]int, error) {
	return tensor.CopyShape(inputShape), nil
}

// Call implements Layer.
func (l *BatchNormalization) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	var gamma, beta *tensor.Tensor
	c := x.Shape[x.Rank()-1]
	if l.gamma != nil {
		gamma = l.gamma.Value()
	} else {
		gamma = ops.Ones(c)
	}
	if l.beta != nil {
		beta = l.beta.Value()
	} else {
		beta = ops.Zeros(c)
	}
	if !training {
		return ops.BatchNorm(x, l.movingMean.Value(), l.movingVar.Value(), beta, gamma, l.cfg.Epsilon)
	}
	// Training: normalize with batch moments over all axes but the last,
	// and update the moving statistics.
	axes := make([]int, x.Rank()-1)
	for i := range axes {
		axes[i] = i
	}
	mean, variance := ops.Moments(x, axes, false)
	m := float32(l.cfg.Momentum)
	l.movingMean.Assign(ops.Add(ops.MulScalar(l.movingMean.Value(), m), ops.MulScalar(mean, 1-m)))
	l.movingVar.Assign(ops.Add(ops.MulScalar(l.movingVar.Value(), m), ops.MulScalar(variance, 1-m)))
	return ops.BatchNorm(x, mean, variance, beta, gamma, l.cfg.Epsilon)
}

// Config implements Layer.
func (l *BatchNormalization) Config() map[string]any {
	return map[string]any{
		"name": l.name, "momentum": l.cfg.Momentum, "epsilon": l.cfg.Epsilon,
		"center": l.center(), "scale": l.scale(),
	}
}

func init() {
	RegisterLayerClass("BatchNormalization", func(c map[string]any) (Layer, error) {
		center := cfgBool(c, "center", true)
		scale := cfgBool(c, "scale", true)
		return NewBatchNormalization(BatchNormConfig{
			Momentum: cfgFloat(c, "momentum", 0.99),
			Epsilon:  cfgFloat(c, "epsilon", 1e-3),
			Center:   &center,
			Scale:    &scale,
			Name:     cfgString(c, "name", ""),
		}), nil
	})
}
