package webgl

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The program cache: TensorFlow.js compiles a shader once per program key —
// the kernel, its inputs' shapes and dtypes and its attributes — and reuses
// the binary for every later dispatch with the same key (§4.1). Here a
// compiled program is the resolved range body, its declared work and the
// output it describes, so a warmed dispatch resolves nothing and builds
// nothing. A call's Resolve reads nothing but what the key holds, so a hit
// has passed the checks its miss ran; the backend's own settings (packing,
// squeezing, half floats) are fixed for the cache's life, which is the
// backend's.

// programCacheCap bounds the cache. When it is full the cache is cleared:
// training makes new keys every step (ApplyAdam's Beta1Power changes each
// step). A MobileNet α=0.25 predict's 85 dispatches need 43 programs, and
// building the model 13 more.
const programCacheCap = 256

// compiled is one cached program and the output it describes.
type compiled struct {
	prog  *glsim.Program
	shape []int
	dtype tensor.DataType
}

// programCache maps a program key to its compiled program.
type programCache struct {
	mu sync.Mutex
	// key is the buffer the next key is built in: a hit allocates nothing.
	key []byte
	m   map[string]compiled
}

// program returns k's compiled program for a call, compiling it on a miss.
// Only a successful compile is kept: a call that fails its checks fails
// them again on every dispatch.
func (b *Backend) program(k kernels.RangeKernel, inputs []kernels.Input, attrs *kernels.Attrs) (compiled, error) {
	c := &b.programs
	c.mu.Lock()
	c.key = appendKey(c.key[:0], k.Name, inputs, attrs)
	if p, ok := c.m[string(c.key)]; ok {
		c.mu.Unlock()
		return p, nil
	}
	key := string(c.key)
	c.mu.Unlock()
	p, err := b.compile(k, ownInputs(inputs), ownAttrs(*attrs))
	if err != nil {
		return compiled{}, err
	}
	c.mu.Lock()
	if len(c.m) >= programCacheCap {
		clear(c.m)
	}
	c.m[key] = p
	c.mu.Unlock()
	return p, nil
}

// compile resolves a call of k and builds its program: k's body over the
// texel range the device hands it, its inputs read from their textures
// inside the program. It declares k's work plus what only this backend's
// shaders cost: the compiled samplers' terms, which squeezing cuts, and a
// packed matmul's shared A samples. The program keeps inputs and attrs, so
// they must be the cache's own.
func (b *Backend) compile(k kernels.RangeKernel, inputs []kernels.Input, attrs kernels.Attrs) (compiled, error) {
	var res kernels.TensorInfo
	r, err := k.Resolve(k.Name, inputs, attrs, &res)
	if err != nil {
		return compiled{}, err
	}
	size := tensor.ShapeSize(res.Shape)
	terms, squeeze := 0, b.cfg.SqueezeLogicalShapes
	if k.Sampled == kernels.SamplesOutput {
		terms = samplerTerms(res.Shape, res.Shape, squeeze)
	}
	for _, in := range k.Sampled.Inputs(inputs, res.Shape) {
		terms += samplerTerms(in.Shape, res.Shape, squeeze)
	}
	r.Work.ALU += int64(size) * int64(kernels.ALUTerm*terms)
	name := k.Name
	if name == "BatchMatMul" && b.cfg.Packed && !attrs.TransposeA && !attrs.TransposeB {
		// Packed matmul: a texel's four consecutive output columns share
		// their A row samples — the vec4 dot-product trick of the paper's
		// packed shaders, which the device's clock sees as fewer fetches.
		rank := len(res.Shape)
		name, r.Work = name+"(packed)", packedMatMulWork(r.Work, size, res.Shape[rank-1], inputs[0].Shape[rank-1])
	}
	return compiled{prog: b.shader(name, size, r), shape: res.Shape, dtype: res.DType}, nil
}

// appendKey appends the program key of a call of kernel name to key: the
// name, each input's shape and dtype, and every field of attrs, a float by
// its bits (a NaN attribute hits its own program) and a nil slice apart
// from an empty one (a reduction's absent and empty Axes differ).
func appendKey(key []byte, name string, inputs []kernels.Input, a *kernels.Attrs) []byte {
	key = appendString(key, name)
	key = binary.AppendUvarint(key, uint64(len(inputs)))
	for _, in := range inputs {
		key = appendInts(key, in.Shape)
		key = binary.AppendVarint(key, int64(in.DType))
	}
	for _, s := range [...][]int{a.Shape, a.FilterSize, a.Strides, a.Dilations, a.Axes, a.Perm, a.Begin, a.Paddings, a.Reps} {
		key = appendInts(key, s)
	}
	key = appendString(appendString(key, a.Pad), a.Activation)
	for _, v := range [...]int{a.Axis, a.Depth, int(a.DType)} {
		key = binary.AppendVarint(key, int64(v))
	}
	for _, f := range [...]float64{a.Alpha, a.ClipMin, a.ClipMax, a.Value, a.OnValue, a.OffValue, a.Start, a.Stop, a.Step, a.Epsilon,
		a.LearningRate, a.Beta1, a.Beta2, a.Beta1Power, a.Beta2Power} {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f))
	}
	var flags byte
	for i, f := range [...]bool{a.TransposeA, a.TransposeB, a.KeepDims, a.Exclusive, a.Reverse} {
		if f {
			flags |= 1 << i
		}
	}
	return append(key, flags)
}

func appendString(key []byte, s string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(s))), s...)
}

// appendInts appends s's length plus one, 0 for nil, then its values.
func appendInts(key []byte, s []int) []byte {
	if s == nil {
		return append(key, 0)
	}
	key = binary.AppendUvarint(key, uint64(len(s))+1)
	for _, v := range s {
		key = binary.AppendVarint(key, int64(v))
	}
	return key
}

// ownInputs and ownAttrs copy a call's slices for a program to keep: a
// caller may reuse its storage (a plan's per-step shape scratch), and a
// program outlives the call.
func ownInputs(inputs []kernels.Input) []kernels.Input {
	own := make([]kernels.Input, len(inputs))
	for i, in := range inputs {
		own[i] = kernels.Input{DataID: in.DataID, Shape: slices.Clone(in.Shape), DType: in.DType}
	}
	return own
}

func ownAttrs(a kernels.Attrs) kernels.Attrs {
	for _, s := range [...]*[]int{&a.Shape, &a.FilterSize, &a.Strides, &a.Dilations, &a.Axes, &a.Perm, &a.Begin, &a.Paddings, &a.Reps} {
		*s = slices.Clone(*s)
	}
	return a
}
