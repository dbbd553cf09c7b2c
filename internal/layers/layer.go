// Package layers implements the Layers API of the paper (Section 3.2): a
// Keras-mirroring model-building API with pre-defined layers, reasonable
// defaults, model-level training and inference methods that internally
// manage memory, and a serialization format compatible in spirit with the
// Keras JSON topology — the "two-way door" that lets models round-trip
// between ecosystems.
package layers

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Layer is one building block of a model. Shapes exclude the batch
// dimension, as in Keras: a 28x28x1 image input has shape [28, 28, 1].
type Layer interface {
	// Name is the unique layer instance name.
	Name() string
	// ClassName is the Keras class name used in serialized topologies.
	ClassName() string
	// Build creates the layer's weights for the given input shape. Build
	// is idempotent; the model calls it on first use.
	Build(inputShape []int) error
	// OutputShape computes the output shape for an input shape.
	OutputShape(inputShape []int) ([]int, error)
	// Call applies the layer. training toggles behaviours like dropout
	// and batch-norm statistics.
	Call(x *tensor.Tensor, training bool) *tensor.Tensor
	// Weights returns the layer's variables, trainable first.
	Weights() []*core.Variable
	// Config returns the serializable layer configuration.
	Config() map[string]any
}

var layerCounter sync.Map // class name -> *int counter

func autoName(class string) string {
	v, _ := layerCounter.LoadOrStore(class, new(int))
	n := v.(*int)
	*n++
	return fmt.Sprintf("%s_%d", class, *n)
}

// ---------------------------------------------------------------------------
// Activations

// ActivationKernel resolves a Keras activation identifier to the kernel
// that applies it: "Softmax" for "softmax", the one activation that is not
// element-wise; the kernel of an element-wise table entry for the others
// (kernels.Activation); "" for the identity ("" or "linear").
func ActivationKernel(name string) (string, error) {
	if name == "softmax" {
		return "Softmax", nil
	}
	op, ok := kernels.Activation(name)
	switch {
	case !ok:
		return "", fmt.Errorf("layers: unknown activation %q", name)
	case op == nil:
		return "", nil
	}
	return op.Name, nil
}

// applyActivation applies a Keras activation identifier.
func applyActivation(name string, x *tensor.Tensor) *tensor.Tensor {
	kernel, err := ActivationKernel(name)
	switch {
	case err != nil:
		panic(&core.OpError{Kernel: "Activation", Err: err})
	case kernel == "":
		return x
	case kernel == "Softmax":
		return ops.Softmax(x)
	}
	return core.Global().RunKernel(kernel, []*tensor.Tensor{x}, kernels.Attrs{})
}

// ---------------------------------------------------------------------------
// Initializers

var (
	initMu  sync.Mutex
	initRNG = rand.New(rand.NewSource(42))
)

// SetSeed reseeds the weight initializer RNG, making model construction
// reproducible.
func SetSeed(seed int64) {
	initMu.Lock()
	defer initMu.Unlock()
	initRNG = rand.New(rand.NewSource(seed))
}

// glorotUniform samples from U(-limit, limit) with
// limit = sqrt(6 / (fanIn + fanOut)), the Keras default kernel initializer.
func glorotUniform(shape []int, fanIn, fanOut int) *tensor.Tensor {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	initMu.Lock()
	defer initMu.Unlock()
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32((initRNG.Float64()*2 - 1) * limit)
	}
	return ops.FromValues(vals, shape...)
}

// heNormal samples from N(0, 2/fanIn), the initializer that preserves
// activation variance through ReLU-family stacks; deep architectures like
// MobileNet use it so signals survive many layers even before training.
func heNormal(shape []int, fanIn int) *tensor.Tensor {
	std := math.Sqrt(2 / float64(fanIn))
	initMu.Lock()
	defer initMu.Unlock()
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(initRNG.NormFloat64() * std)
	}
	return ops.FromValues(vals, shape...)
}

// newWeight creates a trainable variable using the named initializer
// ("glorot_uniform" by default, or "he_normal").
func newWeight(name string, shape []int, fanIn, fanOut int, initializer string) *core.Variable {
	var init *tensor.Tensor
	switch initializer {
	case "", "glorot_uniform":
		init = glorotUniform(shape, fanIn, fanOut)
	case "he_normal":
		init = heNormal(shape, fanIn)
	default:
		panic(&core.OpError{Kernel: "Initializer", Err: fmt.Errorf("unknown initializer %q", initializer)})
	}
	v := core.Global().NewVariable(init, name, true)
	init.Dispose()
	return v
}

// newZeroWeight creates a variable initialized to a constant.
func newConstWeight(name string, shape []int, value float32, trainable bool) *core.Variable {
	init := ops.Fill(shape, value)
	v := core.Global().NewVariable(init, name, trainable)
	init.Dispose()
	return v
}

// ---------------------------------------------------------------------------
// Serialization registry

// Deserializer rebuilds a layer from its config.
type Deserializer func(config map[string]any) (Layer, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Deserializer{}
)

// RegisterLayerClass installs a deserializer for a Keras class name.
func RegisterLayerClass(className string, d Deserializer) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[className] = d
}

// LayerClasses returns the class names installed with RegisterLayerClass,
// sorted.
func LayerClasses() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// FromConfig rebuilds a layer from (className, config).
func FromConfig(className string, config map[string]any) (Layer, error) {
	registryMu.RLock()
	d, ok := registry[className]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("layers: unknown layer class %q", className)
	}
	return d(config)
}

// Config helpers tolerant of JSON number decoding.

func cfgString(c map[string]any, key, def string) string {
	if v, ok := c[key].(string); ok {
		return v
	}
	return def
}

func cfgInt(c map[string]any, key string, def int) int {
	switch v := c[key].(type) {
	case int:
		return v
	case float64:
		return int(v)
	}
	return def
}

func cfgFloat(c map[string]any, key string, def float64) float64 {
	switch v := c[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return def
}

func cfgBool(c map[string]any, key string, def bool) bool {
	if v, ok := c[key].(bool); ok {
		return v
	}
	return def
}

func cfgInts(c map[string]any, key string, def []int) []int {
	switch v := c[key].(type) {
	case []int:
		return v
	case []any:
		out := make([]int, len(v))
		for i, e := range v {
			switch n := e.(type) {
			case int:
				out[i] = n
			case float64:
				out[i] = int(n)
			default:
				return def
			}
		}
		return out
	}
	return def
}
