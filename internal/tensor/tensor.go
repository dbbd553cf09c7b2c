package tensor

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/jsenv"
)

// DataID is an opaque handle onto a backend-owned data container. Several
// tensors may share one DataID (the result of reshape or clone), which is
// what makes those operations free (Section 3.4).
type DataID int64

var nextDataID atomic.Int64

// NewDataID allocates a process-unique data container handle.
func NewDataID() DataID { return DataID(nextDataID.Add(1)) }

var nextTensorID atomic.Int64

// NewTensorID allocates a process-unique tensor id.
func NewTensorID() int64 { return nextTensorID.Add(1) }

// Handler is the engine-side service a Tensor uses to read, dispose and
// retain itself. The concrete implementation lives in internal/core; the
// indirection keeps this package free of a dependency cycle, the same way
// TensorFlow.js tensors talk to a globally registered engine.
type Handler interface {
	// ReadSync synchronously downloads the values backing t, blocking the
	// caller until any pending device work completes (tensor.dataSync()).
	ReadSync(t *Tensor) []float32
	// Read asynchronously downloads the values backing t (tensor.data()).
	Read(t *Tensor) *jsenv.Future[[]float32]
	// Dispose releases t's claim on its data container.
	Dispose(t *Tensor)
	// Keep marks t to survive the enclosing tidy scope.
	Keep(t *Tensor)
	// Clone returns a new tensor sharing t's data container.
	Clone(t *Tensor) *Tensor
}

var handler atomic.Pointer[handlerBox]

type handlerBox struct{ h Handler }

// SetHandler installs the engine as the global tensor handler. It is called
// once by internal/core during initialization. Tensors created by a
// non-global engine carry their owning engine directly (SetOwner); the
// global handler is the fallback for tensors that predate ownership
// stamping and for the single-engine case.
func SetHandler(h Handler) { handler.Store(&handlerBox{h: h}) }

func getHandler() Handler {
	box := handler.Load()
	if box == nil {
		panic("tensor: no engine registered; import the tf package or internal/core")
	}
	return box.h
}

// Tensor is an immutable, shape-annotated handle onto a data container.
// The zero value is not usable; tensors are created by the engine.
type Tensor struct {
	// ID uniquely identifies this tensor handle.
	ID int64
	// DataID identifies the backing data container; shared across shallow
	// copies such as reshapes and clones.
	DataID DataID
	// Shape is the logical dimensions of the tensor. A scalar has an
	// empty shape.
	Shape []int
	// DType is the logical element type.
	DType DataType

	disposed atomic.Bool
	// owner is the engine that registered this tensor, when that engine is
	// not the process-global one. With several engines alive (replica
	// serving), data containers live in per-engine maps, so reads and
	// disposal must route back to the engine that holds the container —
	// regardless of which goroutine touches the handle later.
	owner Handler
}

// New constructs a tensor handle. It is intended for use by the engine and
// backends, not end users; user code creates tensors through the tf facade.
// A handle and its shape are one object: for ranks 1–8 the shape's storage
// is allocated behind the Tensor, which is its first field, so the handle
// is one allocation and a finalizer may be set on it (the engine's
// auto-finalize, Section 4.2). A slice of a handle's Shape therefore keeps
// the whole handle reachable, and under auto-finalize its data container.
func New(dataID DataID, shape []int, dtype DataType) *Tensor {
	t := withShape(len(shape))
	copy(t.Shape, shape)
	t.ID = NewTensorID()
	t.DataID = dataID
	t.DType = dtype
	return t
}

// withShape allocates a handle whose Shape has room for rank dims.
func withShape(rank int) *Tensor {
	switch rank {
	case 1:
		h := new(struct {
			t Tensor
			s [1]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 2:
		h := new(struct {
			t Tensor
			s [2]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 3:
		h := new(struct {
			t Tensor
			s [3]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 4:
		h := new(struct {
			t Tensor
			s [4]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 5:
		h := new(struct {
			t Tensor
			s [5]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 6:
		h := new(struct {
			t Tensor
			s [6]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 7:
		h := new(struct {
			t Tensor
			s [7]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	case 8:
		h := new(struct {
			t Tensor
			s [8]int
		})
		h.t.Shape = h.s[:]
		return &h.t
	}
	// A scalar's empty shape allocates nothing; a shape of rank 9 or more
	// is a second object.
	return &Tensor{Shape: make([]int, rank)}
}

// SetOwner binds the tensor to the engine that registered it. Called by
// the engine while it holds its own lock, before the handle is visible to
// any other goroutine; the subsequent mutex/channel handoff publishes the
// write, so reads of owner need no further synchronization.
func (t *Tensor) SetOwner(h Handler) { t.owner = h }

// Owner returns the engine this tensor was bound to, or nil if it belongs
// to the process-global engine.
func (t *Tensor) Owner() Handler { return t.owner }

func (t *Tensor) handler() Handler {
	if t.owner != nil {
		return t.owner
	}
	return getHandler()
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return ShapeSize(t.Shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Bytes returns the logical memory footprint of the tensor.
func (t *Tensor) Bytes() int { return t.Size() * t.DType.BytesPerElement() }

// DataSync synchronously downloads the tensor's values. In the browser
// setting this blocks the main thread until the GPU finishes (Figure 2).
func (t *Tensor) DataSync() []float32 {
	t.mustLive("DataSync")
	return t.handler().ReadSync(t)
}

// Data asynchronously downloads the tensor's values, returning a future
// that resolves once the device has finished producing them (Figure 3).
func (t *Tensor) Data() *jsenv.Future[[]float32] {
	t.mustLive("Data")
	return t.handler().Read(t)
}

// Dispose releases this tensor's claim on its data container. Disposing a
// tensor twice is an error in TensorFlow.js; here the second call is a
// safe no-op so that tidy scopes and manual disposal compose.
func (t *Tensor) Dispose() {
	if t.disposed.CompareAndSwap(false, true) {
		t.handler().Dispose(t)
	}
}

// Disposed reports whether Dispose has been called on this handle.
func (t *Tensor) Disposed() bool { return t.disposed.Load() }

// Keep marks the tensor to survive the enclosing tidy scope (tf.keep).
func (t *Tensor) Keep() *Tensor {
	t.mustLive("Keep")
	t.handler().Keep(t)
	return t
}

// Clone returns a new tensor handle sharing this tensor's data container.
// Like reshape, this is free: no values are copied (Section 3.4).
func (t *Tensor) Clone() *Tensor {
	t.mustLive("Clone")
	return t.handler().Clone(t)
}

func (t *Tensor) mustLive(op string) {
	if t.disposed.Load() {
		panic(fmt.Sprintf("tensor: %s called on disposed tensor %d", op, t.ID))
	}
}

// String renders a short description such as Tensor[2x3 float32].
func (t *Tensor) String() string {
	dims := make([]string, len(t.Shape))
	for i, d := range t.Shape {
		dims[i] = fmt.Sprint(d)
	}
	shape := strings.Join(dims, "x")
	if shape == "" {
		shape = "scalar"
	}
	return fmt.Sprintf("Tensor[%s %s]", shape, t.DType)
}

// Format renders the tensor values like tensor.print() in TensorFlow.js.
// It downloads data synchronously.
func (t *Tensor) Format() string {
	vals := t.DataSync()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.String())
	writeValues(&b, vals, t.Shape, 0, 0)
	return b.String()
}

func writeValues(b *strings.Builder, vals []float32, shape []int, offset, depth int) {
	indent := strings.Repeat("  ", depth)
	if len(shape) == 0 {
		fmt.Fprintf(b, "%s%g\n", indent, vals[offset])
		return
	}
	if len(shape) == 1 {
		fmt.Fprintf(b, "%s[", indent)
		limit := shape[0]
		truncated := false
		if limit > 16 {
			limit = 16
			truncated = true
		}
		for i := 0; i < limit; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%g", vals[offset+i])
		}
		if truncated {
			fmt.Fprintf(b, ", ... (%d total)", shape[0])
		}
		b.WriteString("]\n")
		return
	}
	inner := ShapeSize(shape[1:])
	fmt.Fprintf(b, "%s[\n", indent)
	limit := shape[0]
	truncated := false
	if limit > 8 {
		limit = 8
		truncated = true
	}
	for i := 0; i < limit; i++ {
		writeValues(b, vals, shape[1:], offset+i*inner, depth+1)
	}
	if truncated {
		fmt.Fprintf(b, "%s  ... (%d slices total)\n", indent, shape[0])
	}
	fmt.Fprintf(b, "%s]\n", indent)
}
