package layers

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Conv2DConfig configures a Conv2D or DepthwiseConv2D layer.
type Conv2DConfig struct {
	// Filters is the number of output channels (Conv2D) or the channel
	// multiplier (DepthwiseConv2D, where 0 means 1).
	Filters int
	// KernelSize is [h, w]; a single-element slice means square.
	KernelSize []int
	// Strides is [h, w]; nil means [1, 1].
	Strides []int
	// Padding is "same" or "valid" (default).
	Padding string
	// Activation is a Keras activation identifier.
	Activation string
	// UseBias adds a bias vector; defaults to true.
	UseBias *bool
	// InputShape, when set on the first layer, defines the model input
	// shape (excluding batch).
	InputShape []int
	// Name overrides the auto-generated layer name.
	Name string
	// Initializer selects the kernel initializer: "glorot_uniform"
	// (default) or "he_normal".
	Initializer string
}

func (c *Conv2DConfig) normalize(class string) error {
	if len(c.KernelSize) == 1 {
		c.KernelSize = []int{c.KernelSize[0], c.KernelSize[0]}
	}
	if len(c.KernelSize) != 2 {
		return fmt.Errorf("layers: %s kernelSize must be [h w], got %v", class, c.KernelSize)
	}
	if c.Strides == nil {
		c.Strides = []int{1, 1}
	}
	if len(c.Strides) == 1 {
		c.Strides = []int{c.Strides[0], c.Strides[0]}
	}
	if c.Padding == "" {
		c.Padding = "valid"
	}
	if c.Padding != "same" && c.Padding != "valid" {
		return fmt.Errorf("layers: %s padding must be same or valid, got %q", class, c.Padding)
	}
	if _, err := ActivationKernel(c.Activation); err != nil {
		return err
	}
	return checkInitializer(c.Initializer)
}

func (c Conv2DConfig) useBias() bool { return c.UseBias == nil || *c.UseBias }

// Conv2D is a 2-D convolution layer over NHWC input.
type Conv2D struct {
	name   string
	cfg    Conv2DConfig
	kernel *core.Variable
	bias   *core.Variable
	weightVars
}

// NewConv2D creates a Conv2D layer.
func NewConv2D(cfg Conv2DConfig) *Conv2D {
	if err := cfg.normalize("Conv2D"); err != nil {
		panic(&core.OpError{Kernel: "Conv2D", Err: err})
	}
	if cfg.Filters <= 0 {
		panic(&core.OpError{Kernel: "Conv2D", Err: fmt.Errorf("filters must be positive, got %d", cfg.Filters)})
	}
	name := cfg.Name
	if name == "" {
		name = autoName("conv2d")
	}
	return &Conv2D{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// ClassName implements Layer.
func (l *Conv2D) ClassName() string { return "Conv2D" }

func (l *Conv2D) weightSpecs(inputShape []int) ([]weightSpec, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: Conv2D %q expects [h w c] per-example input, got %v", l.name, inputShape)
	}
	inC := inputShape[2]
	kh, kw := l.cfg.KernelSize[0], l.cfg.KernelSize[1]
	fanIn := kh * kw * inC
	fanOut := kh * kw * l.cfg.Filters
	specs := []weightSpec{randomWeight(l.name+"/kernel", []int{kh, kw, inC, l.cfg.Filters}, fanIn, fanOut, l.cfg.Initializer)}
	if l.cfg.useBias() {
		specs = append(specs, constWeight(l.name+"/bias", []int{l.cfg.Filters}, 0, true))
	}
	return specs, nil
}

// Build implements Layer.
func (l *Conv2D) Build(inputShape []int) error {
	var err error
	l.kernel, l.bias, err = l.buildKernel(l, inputShape)
	return err
}

// OutputShape implements Layer.
func (l *Conv2D) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: Conv2D %q expects [h w c] per-example input, got %v", l.name, inputShape)
	}
	full := append([]int{1}, inputShape...)
	kh, kw := l.cfg.KernelSize[0], l.cfg.KernelSize[1]
	info, err := kernels.ComputeConv2DInfo(full, []int{kh, kw, inputShape[2], l.cfg.Filters},
		l.cfg.Strides, []int{1, 1}, l.cfg.Padding, false)
	if err != nil {
		return nil, err
	}
	return info.OutShape()[1:], nil
}

// Call implements Layer.
func (l *Conv2D) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := ops.Conv2D(x, l.kernel.Value(), ops.ConvOpts{Strides: l.cfg.Strides, Pad: l.cfg.Padding})
	if l.bias != nil {
		y = ops.Add(y, l.bias.Value())
	}
	return applyActivation(l.cfg.Activation, y)
}

// Config implements Layer.
func (l *Conv2D) Config() map[string]any {
	return map[string]any{
		"name": l.name, "filters": l.cfg.Filters, "kernel_size": l.cfg.KernelSize,
		"strides": l.cfg.Strides, "padding": l.cfg.Padding, "activation": l.cfg.Activation,
		"use_bias": l.cfg.useBias(), "input_shape": l.cfg.InputShape,
		"kernel_initializer": l.cfg.Initializer,
	}
}

// DepthwiseConv2D convolves each channel separately.
type DepthwiseConv2D struct {
	name   string
	cfg    Conv2DConfig
	kernel *core.Variable
	bias   *core.Variable
	weightVars
}

// NewDepthwiseConv2D creates a DepthwiseConv2D layer; cfg.Filters is the
// channel multiplier (0 means 1).
func NewDepthwiseConv2D(cfg Conv2DConfig) *DepthwiseConv2D {
	if err := cfg.normalize("DepthwiseConv2D"); err != nil {
		panic(&core.OpError{Kernel: "DepthwiseConv2D", Err: err})
	}
	if cfg.Filters == 0 {
		cfg.Filters = 1
	}
	name := cfg.Name
	if name == "" {
		name = autoName("depthwise_conv2d")
	}
	return &DepthwiseConv2D{name: name, cfg: cfg}
}

// Name implements Layer.
func (l *DepthwiseConv2D) Name() string { return l.name }

// ClassName implements Layer.
func (l *DepthwiseConv2D) ClassName() string { return "DepthwiseConv2D" }

func (l *DepthwiseConv2D) weightSpecs(inputShape []int) ([]weightSpec, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: DepthwiseConv2D %q expects [h w c] input, got %v", l.name, inputShape)
	}
	inC := inputShape[2]
	kh, kw := l.cfg.KernelSize[0], l.cfg.KernelSize[1]
	fan := kh * kw * l.cfg.Filters
	specs := []weightSpec{randomWeight(l.name+"/depthwise_kernel", []int{kh, kw, inC, l.cfg.Filters}, fan, fan, l.cfg.Initializer)}
	if l.cfg.useBias() {
		specs = append(specs, constWeight(l.name+"/bias", []int{inC * l.cfg.Filters}, 0, true))
	}
	return specs, nil
}

// Build implements Layer.
func (l *DepthwiseConv2D) Build(inputShape []int) error {
	var err error
	l.kernel, l.bias, err = l.buildKernel(l, inputShape)
	return err
}

// OutputShape implements Layer.
func (l *DepthwiseConv2D) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: DepthwiseConv2D %q expects [h w c] input, got %v", l.name, inputShape)
	}
	full := append([]int{1}, inputShape...)
	kh, kw := l.cfg.KernelSize[0], l.cfg.KernelSize[1]
	info, err := kernels.ComputeConv2DInfo(full, []int{kh, kw, inputShape[2], l.cfg.Filters},
		l.cfg.Strides, []int{1, 1}, l.cfg.Padding, true)
	if err != nil {
		return nil, err
	}
	return info.OutShape()[1:], nil
}

// Call implements Layer.
func (l *DepthwiseConv2D) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := ops.DepthwiseConv2D(x, l.kernel.Value(), ops.ConvOpts{Strides: l.cfg.Strides, Pad: l.cfg.Padding})
	if l.bias != nil {
		y = ops.Add(y, l.bias.Value())
	}
	return applyActivation(l.cfg.Activation, y)
}

// Config implements Layer.
func (l *DepthwiseConv2D) Config() map[string]any {
	return map[string]any{
		"name": l.name, "filters": l.cfg.Filters, "kernel_size": l.cfg.KernelSize,
		"strides": l.cfg.Strides, "padding": l.cfg.Padding, "activation": l.cfg.Activation,
		"use_bias": l.cfg.useBias(), "input_shape": l.cfg.InputShape,
		"kernel_initializer": l.cfg.Initializer,
	}
}

// ---------------------------------------------------------------------------
// Pooling

// Pool2DConfig configures pooling layers.
type Pool2DConfig struct {
	// PoolSize is [h, w]; nil means [2, 2].
	PoolSize []int
	// Strides is [h, w]; nil defaults to PoolSize.
	Strides []int
	// Padding is "same" or "valid" (default).
	Padding string
}

func (c *Pool2DConfig) normalize() {
	if c.PoolSize == nil {
		c.PoolSize = []int{2, 2}
	}
	if len(c.PoolSize) == 1 {
		c.PoolSize = []int{c.PoolSize[0], c.PoolSize[0]}
	}
	if c.Strides == nil {
		c.Strides = c.PoolSize
	}
	if len(c.Strides) == 1 {
		c.Strides = []int{c.Strides[0], c.Strides[0]}
	}
	if c.Padding == "" {
		c.Padding = "valid"
	}
}

type pool2D struct {
	name  string
	class string
	cfg   Pool2DConfig
	isMax bool
}

// NewMaxPooling2D creates a max-pooling layer.
func NewMaxPooling2D(cfg Pool2DConfig) Layer {
	cfg.normalize()
	return &pool2D{name: autoName("max_pooling2d"), class: "MaxPooling2D", cfg: cfg, isMax: true}
}

// NewAveragePooling2D creates an average-pooling layer.
func NewAveragePooling2D(cfg Pool2DConfig) Layer {
	cfg.normalize()
	return &pool2D{name: autoName("average_pooling2d"), class: "AveragePooling2D", cfg: cfg}
}

// Name implements Layer.
func (l *pool2D) Name() string { return l.name }

// ClassName implements Layer.
func (l *pool2D) ClassName() string { return l.class }

// Build implements Layer.
func (l *pool2D) Build(shape []int) error { return nil }

// OutputShape implements Layer.
func (l *pool2D) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [h w c] input, got %v", l.class, inputShape)
	}
	full := append([]int{1}, inputShape...)
	info, err := kernels.ComputePool2DInfo(full, l.cfg.PoolSize, l.cfg.Strides, l.cfg.Padding)
	if err != nil {
		return nil, err
	}
	return info.OutShape()[1:], nil
}

// Call implements Layer.
func (l *pool2D) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	opts := ops.PoolOpts{FilterSize: l.cfg.PoolSize, Strides: l.cfg.Strides, Pad: l.cfg.Padding}
	if l.isMax {
		return ops.MaxPool(x, opts)
	}
	return ops.AvgPool(x, opts)
}

// Weights implements Layer.
func (l *pool2D) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *pool2D) Config() map[string]any {
	return map[string]any{
		"name": l.name, "pool_size": l.cfg.PoolSize, "strides": l.cfg.Strides, "padding": l.cfg.Padding,
	}
}

// GlobalAveragePooling2D averages over the spatial dimensions.
type GlobalAveragePooling2D struct {
	name string
}

// NewGlobalAveragePooling2D creates the layer.
func NewGlobalAveragePooling2D() *GlobalAveragePooling2D {
	return &GlobalAveragePooling2D{name: autoName("global_average_pooling2d")}
}

// Name implements Layer.
func (l *GlobalAveragePooling2D) Name() string { return l.name }

// ClassName implements Layer.
func (l *GlobalAveragePooling2D) ClassName() string { return "GlobalAveragePooling2D" }

// Build implements Layer.
func (l *GlobalAveragePooling2D) Build(inputShape []int) error { return nil }

// OutputShape implements Layer.
func (l *GlobalAveragePooling2D) OutputShape(inputShape []int) ([]int, error) {
	if len(inputShape) != 3 {
		return nil, fmt.Errorf("layers: GlobalAveragePooling2D expects [h w c] input, got %v", inputShape)
	}
	return []int{inputShape[2]}, nil
}

// Call implements Layer.
func (l *GlobalAveragePooling2D) Call(x *tensor.Tensor, training bool) *tensor.Tensor {
	return ops.GlobalAvgPool(x)
}

// Weights implements Layer.
func (l *GlobalAveragePooling2D) Weights() []*core.Variable { return nil }

// Config implements Layer.
func (l *GlobalAveragePooling2D) Config() map[string]any {
	return map[string]any{"name": l.name}
}

func init() {
	RegisterLayerClass("Conv2D", func(c map[string]any) (Layer, error) {
		useBias := cfgBool(c, "use_bias", true)
		return NewConv2D(Conv2DConfig{
			Filters:     cfgInt(c, "filters", 0),
			KernelSize:  cfgInts(c, "kernel_size", nil),
			Strides:     cfgInts(c, "strides", nil),
			Padding:     cfgString(c, "padding", "valid"),
			Activation:  cfgString(c, "activation", ""),
			UseBias:     &useBias,
			InputShape:  cfgInts(c, "input_shape", nil),
			Name:        cfgString(c, "name", ""),
			Initializer: cfgString(c, "kernel_initializer", ""),
		}), nil
	})
	RegisterLayerClass("DepthwiseConv2D", func(c map[string]any) (Layer, error) {
		useBias := cfgBool(c, "use_bias", true)
		return NewDepthwiseConv2D(Conv2DConfig{
			Filters:     cfgInt(c, "filters", 1),
			KernelSize:  cfgInts(c, "kernel_size", nil),
			Strides:     cfgInts(c, "strides", nil),
			Padding:     cfgString(c, "padding", "valid"),
			Activation:  cfgString(c, "activation", ""),
			UseBias:     &useBias,
			InputShape:  cfgInts(c, "input_shape", nil),
			Name:        cfgString(c, "name", ""),
			Initializer: cfgString(c, "kernel_initializer", ""),
		}), nil
	})
	RegisterLayerClass("MaxPooling2D", func(c map[string]any) (Layer, error) {
		l := NewMaxPooling2D(Pool2DConfig{
			PoolSize: cfgInts(c, "pool_size", nil),
			Strides:  cfgInts(c, "strides", nil),
			Padding:  cfgString(c, "padding", "valid"),
		}).(*pool2D)
		l.name = cfgString(c, "name", l.name)
		return l, nil
	})
	RegisterLayerClass("AveragePooling2D", func(c map[string]any) (Layer, error) {
		l := NewAveragePooling2D(Pool2DConfig{
			PoolSize: cfgInts(c, "pool_size", nil),
			Strides:  cfgInts(c, "strides", nil),
			Padding:  cfgString(c, "padding", "valid"),
		}).(*pool2D)
		l.name = cfgString(c, "name", l.name)
		return l, nil
	})
	RegisterLayerClass("GlobalAveragePooling2D", func(c map[string]any) (Layer, error) {
		l := NewGlobalAveragePooling2D()
		l.name = cfgString(c, "name", l.name)
		return l, nil
	})
}
