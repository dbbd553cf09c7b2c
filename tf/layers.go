package tf

import (
	"repro/internal/layers"
	"repro/internal/train"
)

// This file re-exports the Layers API (Section 3.2) and the training
// utilities under the tf namespace.

// Sequential is a linear stack of layers (tf.sequential in Listing 1).
type Sequential = layers.Sequential

// Layer is the building-block interface.
type Layer = layers.Layer

// Layer configuration types.
type (
	DenseConfig     = layers.DenseConfig
	Conv2DConfig    = layers.Conv2DConfig
	Pool2DConfig    = layers.Pool2DConfig
	BatchNormConfig = layers.BatchNormConfig
	EmbeddingConfig = layers.EmbeddingConfig
	SimpleRNNConfig = layers.SimpleRNNConfig
	CompileConfig   = layers.CompileConfig
	FitConfig       = layers.FitConfig
	History         = layers.History
	NamedWeight     = layers.NamedWeight
)

// NewSequential creates an empty model; an empty name is auto-generated.
func NewSequential(name string) *Sequential { return layers.NewSequential(name) }

// Layer constructors.
func NewDense(cfg DenseConfig) Layer { return layers.NewDense(cfg) }

// NewConv2DLayer creates a 2-D convolution layer.
func NewConv2DLayer(cfg Conv2DConfig) Layer { return layers.NewConv2D(cfg) }

// NewDepthwiseConv2DLayer creates a depthwise convolution layer.
func NewDepthwiseConv2DLayer(cfg Conv2DConfig) Layer { return layers.NewDepthwiseConv2D(cfg) }

// NewMaxPooling2D creates a max-pooling layer.
func NewMaxPooling2D(cfg Pool2DConfig) Layer { return layers.NewMaxPooling2D(cfg) }

// NewAveragePooling2D creates an average-pooling layer.
func NewAveragePooling2D(cfg Pool2DConfig) Layer { return layers.NewAveragePooling2D(cfg) }

// NewGlobalAveragePooling2D creates a global average-pooling layer.
func NewGlobalAveragePooling2D() Layer { return layers.NewGlobalAveragePooling2D() }

// NewFlatten creates a layer that flattens per-example input to rank 1.
func NewFlatten() Layer { return layers.NewFlatten() }

// NewActivationLayer creates a layer applying the named activation.
func NewActivationLayer(activation string) Layer { return layers.NewActivation(activation) }

// NewDropout creates a dropout layer with the given drop rate.
func NewDropout(rate float64) Layer { return layers.NewDropout(rate) }

// NewReshapeLayer creates a layer reshaping per-example dimensions.
func NewReshapeLayer(target []int) Layer { return layers.NewReshape(target) }

// NewBatchNormalization creates a batch-normalization layer.
func NewBatchNormalization(cfg BatchNormConfig) Layer { return layers.NewBatchNormalization(cfg) }

// NewEmbedding creates a trainable token-embedding lookup layer.
func NewEmbedding(cfg EmbeddingConfig) Layer { return layers.NewEmbedding(cfg) }

// NewSimpleRNN creates an Elman recurrent layer (see internal/layers).
func NewSimpleRNN(cfg SimpleRNNConfig) Layer { return layers.NewSimpleRNN(cfg) }

// NewZeroPadding2D creates a spatial zero-padding layer.
func NewZeroPadding2D(pads []int) Layer { return layers.NewZeroPadding2D(pads) }

// ModelFromJSON rebuilds a model from a serialized topology (the Keras
// two-way door of Section 3.2).
func ModelFromJSON(data []byte) (*Sequential, error) { return layers.FromJSON(data) }

// SetLayerSeed makes weight initialization reproducible.
func SetLayerSeed(seed int64) { layers.SetSeed(seed) }

// ---------------------------------------------------------------------------
// Training (tf.train.*)

// Optimizer updates variables from gradients.
type Optimizer = train.Optimizer

// VarGrad is a variable and its gradient, what Optimizer.ApplyGradients
// takes a list of.
type VarGrad = train.VarGrad

// Loss maps (labels, predictions) to a scalar.
type Loss = train.Loss

// Metric is a named evaluation function.
type Metric = train.Metric

// Optimizer constructors (tf.train.sgd, tf.train.adam, ...).
func TrainSGD(lr float64) Optimizer { return train.NewSGD(lr) }

// TrainMomentum returns an SGD-with-momentum optimizer (tf.train.momentum).
func TrainMomentum(lr, momentum float64) Optimizer {
	return train.NewMomentum(lr, momentum, false)
}

// TrainRMSProp returns an RMSProp optimizer (tf.train.rmsprop).
func TrainRMSProp(lr, decay float64) Optimizer { return train.NewRMSProp(lr, decay, 0) }

// TrainAdagrad returns an Adagrad optimizer (tf.train.adagrad).
func TrainAdagrad(lr float64) Optimizer { return train.NewAdagrad(lr) }

// TrainAdam returns an Adam optimizer (tf.train.adam).
func TrainAdam(lr, beta1, beta2, eps float64) Optimizer {
	return train.NewAdam(lr, beta1, beta2, eps)
}

// Minimize computes gradients of f and applies one optimizer step,
// returning the loss (optimizer.minimize).
func Minimize(opt Optimizer, f func() *Tensor, vars []*Variable) *Tensor {
	return train.Minimize(opt, f, vars)
}

// Losses.
func LossMeanSquaredError(yTrue, yPred *Tensor) *Tensor { return train.MeanSquaredError(yTrue, yPred) }

// LossCategoricalCrossentropy is the cross-entropy loss over probabilities.
func LossCategoricalCrossentropy(yTrue, yPred *Tensor) *Tensor {
	return train.CategoricalCrossentropy(yTrue, yPred)
}

// LossSoftmaxCrossEntropy is the numerically stable softmax cross-entropy over logits.
func LossSoftmaxCrossEntropy(yTrue, logits *Tensor) *Tensor {
	return train.SoftmaxCrossEntropyFromLogits(yTrue, logits)
}

// LossBinaryCrossentropy is the binary cross-entropy loss.
func LossBinaryCrossentropy(yTrue, yPred *Tensor) *Tensor {
	return train.BinaryCrossentropy(yTrue, yPred)
}
