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

// checkInitializer rejects a kernel initializer Build could not draw.
func checkInitializer(initializer string) error {
	switch initializer {
	case "", "glorot_uniform", "he_normal":
		return nil
	}
	return fmt.Errorf("unknown initializer %q", initializer)
}

// ---------------------------------------------------------------------------
// Weights

// weightSpec is one weight of a layer for an input shape: its name, its
// shape and how Build fills it. A weighted class states its weights in one
// place (weighted.weightSpecs): Build makes its variables from that list,
// and Sequential.CheckWeights holds a list of named weights to it without
// building anything.
type weightSpec struct {
	name      string
	shape     []int
	trainable bool
	// Build draws the values with initializer ("glorot_uniform" or
	// "he_normal") over fanIn and fanOut or, with no initializer, sets
	// every value to fill.
	initializer   string
	fanIn, fanOut int
	fill          float32
}

// randomWeight is a trainable weight drawn by the named kernel initializer
// ("glorot_uniform" when "").
func randomWeight(name string, shape []int, fanIn, fanOut int, initializer string) weightSpec {
	if initializer == "" {
		initializer = "glorot_uniform"
	}
	return weightSpec{name: name, shape: shape, trainable: true, initializer: initializer, fanIn: fanIn, fanOut: fanOut}
}

// constWeight is a weight whose every value starts at fill.
func constWeight(name string, shape []int, fill float32, trainable bool) weightSpec {
	return weightSpec{name: name, shape: shape, trainable: trainable, fill: fill}
}

// variable makes the weight's variable on the global engine.
func (s weightSpec) variable() *core.Variable {
	var init *tensor.Tensor
	switch s.initializer {
	case "":
		init = ops.Fill(s.shape, s.fill)
	case "glorot_uniform":
		init = glorotUniform(s.shape, s.fanIn, s.fanOut)
	case "he_normal":
		init = heNormal(s.shape, s.fanIn)
	default:
		panic(&core.OpError{Kernel: "Initializer", Err: checkInitializer(s.initializer)})
	}
	v := core.Global().NewVariable(init, s.name, s.trainable)
	init.Dispose()
	return v
}

// weighted is a layer class with weights.
type weighted interface {
	// weightSpecs lists the layer's weights for a per-example input
	// shape, in the order of Layer.Weights.
	weightSpecs(inputShape []int) ([]weightSpec, error)
}

// weightVars holds a weighted layer's variables once it is built, in the
// order of its weightSpecs. Embedded, it is the layer's Weights.
type weightVars struct{ vars []*core.Variable }

// Weights implements Layer.
func (w *weightVars) Weights() []*core.Variable { return w.vars }

// build makes the variables of l, the layer w is embedded in, from its
// weightSpecs for inputShape, unless it has them.
func (w *weightVars) build(l weighted, inputShape []int) error {
	if w.vars != nil {
		return nil
	}
	specs, err := l.weightSpecs(inputShape)
	if err != nil {
		return err
	}
	vars := make([]*core.Variable, len(specs))
	for i, s := range specs {
		vars[i] = s.variable()
	}
	w.vars = vars
	return nil
}

// buildKernel builds l, whose weights are a kernel and, optionally, a
// bias, and returns those.
func (w *weightVars) buildKernel(l weighted, inputShape []int) (kernel, bias *core.Variable, err error) {
	if err := w.build(l, inputShape); err != nil {
		return nil, nil, err
	}
	if len(w.vars) > 1 {
		bias = w.vars[1]
	}
	return w.vars[0], bias, nil
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

// FromConfig rebuilds a layer from (className, config). A config the
// class's constructor rejects (a Dense of 0 units, an unknown activation)
// is an error naming the layer, not the constructor's *core.OpError panic:
// a topology comes from an artifact, which a server loads.
func FromConfig(className string, config map[string]any) (l Layer, err error) {
	registryMu.RLock()
	d, ok := registry[className]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("layers: unknown layer class %q", className)
	}
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *core.OpError, configError:
				l, err = nil, fmt.Errorf("layers: %s layer %q: %w", className, cfgString(config, "name", ""), r.(error))
			default:
				panic(r)
			}
		}
	}()
	// Every class may carry input_shape (Sequential reads the first
	// layer's), so it is checked here whether or not the class reads it.
	cfgInts(config, "input_shape", nil)
	return d(config)
}

// Config helpers tolerant of JSON number decoding. An integer key holding
// a number that is not a whole number, or that no int holds, panics with a
// configError, which FromConfig returns naming the layer and the key.

// configError is a config key whose value is not an integer.
type configError struct {
	key   string
	value any
}

func (e configError) Error() string {
	return fmt.Sprintf("config %q: %v is not an integer", e.key, e.value)
}

// configInt is the value v of integer key key as an int.
func configInt(key string, v float64) int {
	// math.MaxInt rounds up to a float64 no int holds (2^63 on 64 bits).
	if v != math.Trunc(v) || v < math.MinInt || v >= math.MaxInt {
		panic(configError{key: key, value: v})
	}
	return int(v)
}

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
		return configInt(key, v)
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
				out[i] = configInt(key, n)
			default:
				return def
			}
		}
		return out
	}
	return def
}
