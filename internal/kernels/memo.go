package kernels

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// The memo of resolved calls. TensorFlow.js compiles a shader once per
// program key — the kernel, its inputs' shapes and dtypes and its
// attributes — and reuses the binary for every later dispatch with the same
// key (§4.1); TensorFlow builds a kernel once per op signature the same
// way. A range kernel's Resolve reads nothing but what that key holds, so
// its result serves every later call with the key, and a hit has passed the
// checks its miss ran. A Memo is the one place a Resolve result is kept:
// node keeps the resolved call itself, webgl the shader program it builds
// from it. The graph plan keeps none of its own: its steps reach the memo
// through Dispatch, whatever batch size an execute runs.

// MemoCap bounds a Memo; when it is full it is cleared. It is sized from
// the traffic: a served MobileNet α=0.25 resolves about 30 calls per batch
// size, 480 over batches of 1 to 16, and a memo smaller than a workload's
// keys is cleared over and over, every miss allocating again.
const MemoCap = 1024

// A Resolved is one resolved call of a range kernel: its Range and its
// output's shape and dtype.
type Resolved struct {
	Range
	Shape []int
	DType tensor.DataType
}

// A Memo maps the call signatures of the range table to what a backend
// builds from each resolved call. What a resolve sizes to the call — the
// slices of a view, a broadcast or a reduction of any rank — is built once,
// on the miss, and kept with the value, so a hit allocates nothing. It is
// safe for concurrent use.
type Memo[V any] struct {
	build func(k RangeKernel, r Resolved, inputs []Input, attrs Attrs) V

	mu sync.Mutex
	// key is the buffer the next key is built in: a hit allocates nothing.
	key    []byte
	m      map[string]V
	misses int64
}

// NewMemo returns an empty memo whose misses build their value with build,
// from the call's resolution and its inputs and attributes, which the
// value may keep: they are the memo's own copies.
func NewMemo[V any](build func(k RangeKernel, r Resolved, inputs []Input, attrs Attrs) V) *Memo[V] {
	return &Memo[V]{build: build, m: map[string]V{}}
}

// Get returns the value of a call of k, resolving the call and building its
// value on a miss. Only a success is kept: a call that fails its checks
// resolves again on every dispatch. A miss resolves copies of the call's slices, since a caller may
// reuse its storage (a plan's per-step shape scratch) and the value
// outlives the call.
func (c *Memo[V]) Get(k RangeKernel, inputs []Input, attrs *Attrs) (V, error) {
	c.mu.Lock()
	c.key = appendKey(c.key[:0], k.Name, inputs, attrs)
	if v, ok := c.m[string(c.key)]; ok {
		c.mu.Unlock()
		return v, nil
	}
	key := string(c.key)
	c.misses++
	c.mu.Unlock()
	own, a := ownInputs(inputs), ownAttrs(*attrs)
	var out TensorInfo
	r, err := k.Resolve(k.Name, own, a, &out)
	if err != nil {
		var none V
		return none, err
	}
	v := c.build(k, Resolved{Range: r, Shape: out.Shape, DType: out.DType}, own, a)
	c.mu.Lock()
	if len(c.m) >= MemoCap {
		clear(c.m)
	}
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// Len is the number of values the memo holds.
func (c *Memo[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Misses is the number of calls the memo has resolved: its lookups that
// found no value, failed ones included.
func (c *Memo[V]) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// appendKey appends the key of a call of kernel name to key: the name,
// each input's shape and dtype, and every field of attrs, a float by its
// bits (a NaN attribute has a key of its own) and a nil slice apart from an
// empty one (a reduction's absent and empty Axes differ).
func appendKey(key []byte, name string, inputs []Input, a *Attrs) []byte {
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
		a.LearningRate, a.Beta1, a.Beta2} {
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

// ownInputs and ownAttrs copy a call's slices for a memo value to keep.
func ownInputs(inputs []Input) []Input {
	own := make([]Input, len(inputs))
	for i, in := range inputs {
		own[i] = Input{DataID: in.DataID, Shape: slices.Clone(in.Shape), DType: in.DType}
	}
	return own
}

func ownAttrs(a Attrs) Attrs {
	for _, s := range [...]*[]int{&a.Shape, &a.FilterSize, &a.Strides, &a.Dilations, &a.Axes, &a.Perm, &a.Begin, &a.Paddings, &a.Reps} {
		*s = slices.Clone(*s)
	}
	return a
}
