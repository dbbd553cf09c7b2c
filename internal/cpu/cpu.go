// Package cpu implements the plain CPU backend: the analogue of the
// paper's "plain JS" backend (Section 3.1), a straightforward
// single-threaded implementation that runs anywhere and serves as the
// baseline of Table 1.
//
// The backend stores data containers as host slices and provides no kernel
// overrides: every operation executes on kernels.Dispatch's reference-kernel
// leg, scalar and single-threaded, just as the plain JS backend executes
// interpreted loops. The optimized backends (webgl, native) embed this
// package's storage plane and override the kernels that matter.
package cpu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/jsenv"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Backend is a host-memory backend.
type Backend struct {
	name string

	mu    sync.Mutex
	bufs  map[tensor.DataID][]float32
	bytes int64

	// pool, when non-nil, is the data-plane buffer recycler (ISSUE 9's
	// generalization of the WebGL texture recycler): DisposeData parks
	// buffers here and Alloc/Write draw from it before make. It is an
	// atomic pointer so config-time toggles don't race in-flight kernels.
	pool   atomic.Pointer[bufpool.Pool]
	poison atomic.Bool
}

// New returns the plain CPU backend.
func New() *Backend { return NewNamed("cpu") }

// NewNamed returns a host-memory backend with a custom name; used by
// backends that embed this storage plane.
func NewNamed(name string) *Backend {
	return &Backend{name: name, bufs: map[tensor.DataID][]float32{}}
}

// Name implements kernels.Backend.
func (b *Backend) Name() string { return b.name }

// EnablePooling turns the data-plane buffer recycler on or off. Turning it
// off drains the free lists back to the GC. Live containers are unaffected
// either way — only future Alloc/Write/DisposeData calls change behavior.
func (b *Backend) EnablePooling(on bool) {
	if on {
		if b.pool.Load() == nil {
			p := bufpool.New()
			p.SetPoison(b.poison.Load())
			b.pool.CompareAndSwap(nil, p)
		}
		return
	}
	if p := b.pool.Swap(nil); p != nil {
		p.Drain()
	}
}

// PoolActive implements kernels.Recycler.
func (b *Backend) PoolActive() bool { return b.pool.Load() != nil }

// SetPoolPoison toggles poison mode: freed buffers are scribbled with NaN
// sentinels so use-after-dispose corrupts results loudly.
func (b *Backend) SetPoolPoison(on bool) {
	b.poison.Store(on)
	if p := b.pool.Load(); p != nil {
		p.SetPoison(on)
	}
}

// PoolPoison reports whether poison mode is on.
func (b *Backend) PoolPoison() bool { return b.poison.Load() }

// Alloc returns a zeroed buffer of n elements, drawn from the recycler
// when pooling is on. Kernel overrides allocate outputs through it (they
// accumulate with +=, so outputs must start zeroed; zeroing also clears any
// poison sentinel) and hand the buffer back via WriteOwned.
func (b *Backend) Alloc(n int) []float32 {
	p := b.pool.Load()
	if p == nil {
		return make([]float32, n)
	}
	buf := p.Get(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// AllocOver is Alloc for an output its kernel writes in full before reading
// any of it: a recycled buffer keeps its old contents.
func (b *Backend) AllocOver(n int) []float32 {
	if p := b.pool.Load(); p != nil {
		return p.Get(n)
	}
	return make([]float32, n)
}

// Write implements kernels.Backend.
func (b *Backend) Write(d tensor.DataID, values []float32, shape []int, dtype tensor.DataType) {
	var buf []float32
	if p := b.pool.Load(); p != nil {
		buf = p.Get(len(values))
	} else {
		buf = make([]float32, len(values))
	}
	copy(buf, values)
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.bufs[d]; dup {
		//lint:ignore operr engine-invariant corruption (data id reused); no kernel to attribute
		panic(fmt.Sprintf("cpu: duplicate write for data id %d", d))
	}
	b.bufs[d] = buf
	b.bytes += int64(len(buf)) * 4
}

// WriteOwned registers a buffer the backend takes ownership of, avoiding a
// copy. Used by kernel overrides that allocate their own outputs.
func (b *Backend) WriteOwned(d tensor.DataID, buf []float32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.bufs[d]; dup {
		//lint:ignore operr engine-invariant corruption (data id reused); no kernel to attribute
		panic(fmt.Sprintf("cpu: duplicate write for data id %d", d))
	}
	b.bufs[d] = buf
	b.bytes += int64(len(buf)) * 4
}

// Raw returns the backing buffer without copying. The buffer must be
// treated as immutable; it is shared by every tensor handle onto the
// container. Intended for embedding backends' kernel overrides.
func (b *Backend) Raw(d tensor.DataID) []float32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := b.bufs[d]
	if !ok {
		//lint:ignore operr engine-invariant corruption (read of unregistered data id); no kernel to attribute
		panic(fmt.Sprintf("cpu: read of unknown data id %d", d))
	}
	return buf
}

// ReadSync implements kernels.Backend. Like the TensorFlow.js CPU backend
// it returns the backing buffer without copying; callers must not mutate
// it. This is the data plane's view accessor itself — the one place a
// pooled view legitimately crosses the package boundary. Consumers that
// outlive the data must copy: the engine-level read path does exactly
// that (core.retainable) whenever the recycler is active.
//
//lint:ignore poolretain the data-plane view accessor: kernel operands are alive for the call by contract, and the engine copies at the API boundary (core.retainable)
func (b *Backend) ReadSync(d tensor.DataID) []float32 { return b.Raw(d) }

// Read implements kernels.Backend. Host memory is immediately available, so
// the future resolves without waiting, but asynchronously — preserving the
// scheduling contract that tensor.data() never runs its continuation
// inline.
func (b *Backend) Read(d tensor.DataID) *jsenv.Future[[]float32] {
	f := jsenv.NewFuture[[]float32]()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				f.Resolve(nil, fmt.Errorf("cpu: %v", r))
			}
		}()
		buf := b.Raw(d)
		if b.PoolActive() {
			// The future's consumer retains the slice past the tensor's
			// lifetime; with the recycler on, the backing buffer may be
			// reused (and poisoned) after dispose, so hand out a copy.
			cp := make([]float32, len(buf))
			copy(cp, buf)
			buf = cp
		}
		f.Resolve(buf, nil)
	}()
	return f
}

// DisposeData implements kernels.Backend. With the recycler on, the backing
// buffer parks on a size-class free list for the next Alloc/Write instead
// of returning to the GC.
func (b *Backend) DisposeData(d tensor.DataID) {
	b.mu.Lock()
	buf, ok := b.bufs[d]
	if ok {
		b.bytes -= int64(len(buf)) * 4
		delete(b.bufs, d)
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	if p := b.pool.Load(); p != nil {
		p.Put(buf)
	}
}

// Memory implements kernels.Backend.
func (b *Backend) Memory() kernels.MemoryInfo {
	b.mu.Lock()
	info := kernels.MemoryInfo{NumBuffers: len(b.bufs), NumBytes: b.bytes}
	b.mu.Unlock()
	if p := b.pool.Load(); p != nil {
		st := p.Stats()
		info.FreeBuffers = st.FreeBuffers
		info.PoolBytes = st.PoolBytes
		info.PoolHits = st.Hits
		info.PoolMisses = st.Misses
		info.RecycledBytes = st.RecycledBytes
	}
	return info
}

// Time implements kernels.Backend. The CPU has no separate device timeline,
// so only wall time is reported.
func (b *Backend) Time(f func()) kernels.TimeInfo {
	start := time.Now()
	f()
	return kernels.TimeInfo{WallMS: float64(time.Since(start)) / float64(time.Millisecond)}
}

// Close implements kernels.Backend.
func (b *Backend) Close() {
	b.mu.Lock()
	b.bufs = map[tensor.DataID][]float32{}
	b.bytes = 0
	b.mu.Unlock()
	if p := b.pool.Load(); p != nil {
		p.Drain()
	}
}

var (
	_ kernels.Backend  = (*Backend)(nil)
	_ kernels.Recycler = (*Backend)(nil)
)
