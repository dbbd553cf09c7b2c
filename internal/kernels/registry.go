package kernels

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// ErrFallback is returned by a kernel override to decline an invocation it
// does not specialize (for example, a broadcasting shape combination);
// Dispatch then executes the reference kernel through host memory instead.
var ErrFallback = errors.New("kernels: fall back to reference implementation")

// Attrs carries the attribute bag of a kernel invocation (strides, padding,
// axis lists, ...). Values are read through the typed getters, which panic
// on type mismatch: a wrong attribute type is a programming error in an op
// definition, not a runtime condition.
type Attrs map[string]any

// Int returns the int attribute key, or def when absent.
func (a Attrs) Int(key string, def int) int {
	v, ok := a[key]
	if !ok {
		return def
	}
	i, ok := v.(int)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want int", key, v))
	}
	return i
}

// Ints returns the []int attribute key, or def when absent.
func (a Attrs) Ints(key string, def []int) []int {
	v, ok := a[key]
	if !ok {
		return def
	}
	i, ok := v.([]int)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want []int", key, v))
	}
	return i
}

// Float returns the float64 attribute key, or def when absent.
func (a Attrs) Float(key string, def float64) float64 {
	v, ok := a[key]
	if !ok {
		return def
	}
	f, ok := v.(float64)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want float64", key, v))
	}
	return f
}

// String returns the string attribute key, or def when absent.
func (a Attrs) String(key, def string) string {
	v, ok := a[key]
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want string", key, v))
	}
	return s
}

// Floats returns the []float32 attribute key, or def when absent.
func (a Attrs) Floats(key string, def []float32) []float32 {
	v, ok := a[key]
	if !ok {
		return def
	}
	f, ok := v.([]float32)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want []float32", key, v))
	}
	return f
}

// Bool returns the bool attribute key, or def when absent.
func (a Attrs) Bool(key string, def bool) bool {
	v, ok := a[key]
	if !ok {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		//lint:ignore operr kernels is imported by core and cannot name *core.OpError; the dispatching op attributes this attr-decode invariant
		panic(fmt.Sprintf("kernels: attr %q is %T, want bool", key, v))
	}
	return b
}

// Buffer is a host-memory tensor view consumed and produced by reference
// kernels: raw values plus logical shape.
type Buffer struct {
	Data  []float32
	Shape []int
	DType tensor.DataType
}

// NewBuffer allocates a zero-filled buffer of the given shape.
func NewBuffer(shape []int, dtype tensor.DataType) Buffer {
	return Buffer{
		Data:  make([]float32, tensor.ShapeSize(shape)),
		Shape: tensor.CopyShape(shape),
		DType: dtype,
	}
}

// Size returns the element count of the buffer.
func (b Buffer) Size() int { return tensor.ShapeSize(b.Shape) }

// Rank returns the number of dimensions.
func (b Buffer) Rank() int { return len(b.Shape) }

// RefKernel is a reference kernel: a pure host-memory implementation of an
// operation. Reference kernels are the single source of truth for kernel
// semantics; every backend either overrides them with a device-specific
// version or inherits them through Dispatch. Like every kernel, a reference
// kernel has one output.
type RefKernel func(inputs []Buffer, attrs Attrs) (Buffer, error)

var (
	refMu       sync.RWMutex
	refRegistry = map[string]RefKernel{}
)

// RegisterRef installs the reference implementation of a kernel. It panics
// on duplicate registration, which would indicate two files claiming the
// same kernel name.
func RegisterRef(name string, k RefKernel) {
	refMu.Lock()
	defer refMu.Unlock()
	if _, dup := refRegistry[name]; dup {
		//lint:ignore operr init-time registration invariant: two files claiming one kernel name, no dispatch in flight to attribute
		panic(fmt.Sprintf("kernels: duplicate reference kernel %q", name))
	}
	refRegistry[name] = k
}

// LookupRef returns the reference implementation of a kernel.
func LookupRef(name string) (RefKernel, bool) {
	refMu.RLock()
	defer refMu.RUnlock()
	k, ok := refRegistry[name]
	return k, ok
}

// RefKernelNames returns the sorted names of all registered reference
// kernels, for introspection and tests.
func RefKernelNames() []string {
	refMu.RLock()
	defer refMu.RUnlock()
	names := make([]string, 0, len(refRegistry))
	for name := range refRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// errIn builds a consistent kernel input validation error.
func errIn(kernel, format string, args ...any) error {
	return fmt.Errorf("kernel %s: %s", kernel, fmt.Sprintf(format, args...))
}

// wantInputs validates the arity of a kernel invocation.
func wantInputs[T Buffer | Input](kernel string, inputs []T, n int) error {
	if len(inputs) != n {
		return errIn(kernel, "got %d inputs, want %d", len(inputs), n)
	}
	return nil
}

// inputsOf views a reference kernel's operands as the Inputs the checks it
// shares with the backends (Resolve*) read.
func inputsOf(bufs []Buffer) []Input {
	ins := make([]Input, len(bufs))
	for i, b := range bufs {
		ins[i] = Input{Shape: b.Shape, DType: b.DType}
	}
	return ins
}
