// Package kernels defines the backend contract of the library and the
// reference kernel implementations.
//
// As in Section 3.3 of the paper, an operation is an abstract computation
// independent of the device it runs on; operations call into kernels, which
// are device-specific implementations. This package holds:
//
//   - the Backend interface every device implements (data storage, sync and
//     async reads, memory accounting, device-specific timing);
//   - a registry of reference kernels: straightforward, single-threaded,
//     scalar implementations of every operation. The plain CPU backend (the
//     analogue of the paper's "plain JS" backend) runs these as its own
//     kernels; the device tiers run the range table (table.go), whose
//     every body is held to them;
//   - Dispatch, the one function that runs a backend's kernel: the eager
//     engine and the graph plan executor both run kernels through it.
package kernels

import (
	"repro/internal/jsenv"
	"repro/internal/tensor"
)

// Backend is the device contract from Section 3.4: "A backend implements
// kernels as well as methods such as read() and write() which are used to
// store the TypedArray that backs the tensor."
type Backend interface {
	// Name identifies the backend ("cpu", "webgl", "native").
	Name() string

	// Write stores values into a data container registered under d, which
	// the caller allocates with tensor.NewDataID. The backend owns the
	// container until DisposeData is called. Keeping id allocation with
	// the engine lets a container migrate between backends without
	// invalidating the tensor handles that share it. Write copies values:
	// the caller may reuse the slice once it returns.
	Write(d tensor.DataID, values []float32, shape []int, dtype tensor.DataType)

	// ReadSync downloads the container's values, blocking until any
	// pending device work that produces them has completed. The returned
	// slice must be safe for the caller to retain (a copy, or an
	// immutable buffer).
	ReadSync(d tensor.DataID) []float32

	// Read downloads the container's values asynchronously. The future
	// resolves once the device signals completion (for WebGL, via a
	// fence; Section 4.1.1).
	Read(d tensor.DataID) *jsenv.Future[[]float32]

	// DisposeData releases the container. Called by the engine when the
	// container's tensor reference count reaches zero (Section 3.4).
	DisposeData(d tensor.DataID)

	// Memory reports the backend's current allocation state.
	Memory() MemoryInfo

	// Time runs f and reports wall time plus device-specific kernel time
	// where the device can measure it (Section 3.8: "Each backend is
	// responsible for timing functions, as timing may be device
	// specific").
	Time(f func()) TimeInfo

	// Close releases all backend resources.
	Close()

	// Kernel returns the backend's kernel for name, if it has one. Every
	// tier has one for every entry of the range table (RangeKernels).
	Kernel(name string) (Kernel, bool)
}

// Kernel is a device-resident kernel, and the one kernel contract every
// backend implements: it consumes input containers already living on
// the backend and describes its single output container in *out, without
// round-tripping values through host memory. The output shape is appended
// into out.Shape[:0] by value — never aliased from an input — so a caller
// that reuses out (the plan executor's per-step scratch) re-runs a kernel
// without allocating, and an output can outlive its inputs. A kernel keeps
// neither inputs nor out after it returns — a program it leaves running on
// a device holds what it read from them, not the slices: the engine
// reuses their storage for its next dispatch, and clears it first, so an
// input kept past return reads DataID 0.
type Kernel func(inputs []Input, attrs Attrs, out *TensorInfo) error

// Recycler is implemented by backends whose DisposeData returns buffers to
// a free list for reuse — the generalization of the WebGL texture recycler
// (Section 4.1.2) to host-memory backends. Callers that retain a slice read
// from such a backend must copy it while the pool is active, since the
// backing buffer may be recycled (and poisoned) after the container is
// disposed.
type Recycler interface {
	// PoolActive reports whether the data-plane buffer pool is on.
	PoolActive() bool
}

// Input pairs a data container with its logical shape and dtype, the view
// of a tensor a kernel needs.
type Input struct {
	DataID tensor.DataID
	Shape  []int
	DType  tensor.DataType
}

// TensorInfo describes a kernel output before the engine wraps it into a
// tracked Tensor. Kernels that merely re-view data (Reshape, Cast between
// compatible types) return the input's DataID with a new shape, which is
// what makes those ops free.
type TensorInfo struct {
	DataID tensor.DataID
	Shape  []int
	DType  tensor.DataType
}

// Set describes a kernel output: container, dtype and a copy of shape,
// appended into t.Shape[:0] so a reused descriptor's storage is reused and
// the output never aliases the slice it was described from.
func (t *TensorInfo) Set(id tensor.DataID, shape []int, dtype tensor.DataType) {
	t.DataID, t.DType = id, dtype
	t.Shape = append(t.Shape[:0], shape...)
}

// MemoryInfo is the per-backend allocation snapshot surfaced through
// tf.memory() (Section 3.8).
type MemoryInfo struct {
	// NumBuffers is the number of live data containers.
	NumBuffers int
	// NumBytes is the logical bytes across live containers.
	NumBytes int64
	// NumTextures is the number of live device textures (WebGL only).
	NumTextures int
	// TextureBytes is the bytes held in device textures (WebGL only).
	TextureBytes int64
	// FreeTextures is the number of recycled textures awaiting reuse
	// (WebGL only; Section 4.1.2).
	FreeTextures int
	// PagedBytes is the bytes currently paged out of the device to host
	// memory (WebGL only; Section 4.1.2).
	PagedBytes int64
	// FreeBuffers is the number of recycled host buffers awaiting reuse
	// (pooled backends; the host-memory analogue of FreeTextures).
	FreeBuffers int
	// PoolBytes is the bytes currently parked on the backend's free lists.
	PoolBytes int64
	// PoolHits and PoolMisses count allocations served from the free
	// lists vs fresh makes since the backend was created.
	PoolHits, PoolMisses int64
	// RecycledBytes is the cumulative bytes served from the free lists.
	RecycledBytes int64
	// Unreliable is set when the backend cannot exactly account for
	// device memory, mirroring tf.memory().unreliable in the browser.
	Unreliable bool
}

// TimeInfo is the result of Backend.Time (tf.time(), Section 3.8).
type TimeInfo struct {
	// WallMS is end-to-end wall time in milliseconds.
	WallMS float64
	// KernelMS is device-measured kernel time in milliseconds, excluding
	// upload/download, when the device supports measuring it (the WebGL
	// backend's disjoint timer query).
	KernelMS float64
	// HasKernelMS reports whether KernelMS is meaningful.
	HasKernelMS bool
}
