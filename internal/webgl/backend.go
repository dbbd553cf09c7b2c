package webgl

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/glsim"
	"repro/internal/jsenv"
	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config controls the backend's optimizations, each of which corresponds to
// a design decision called out in the paper and has an ablation benchmark.
type Config struct {
	// Device configures the simulated WebGL device.
	Device glsim.Config
	// Packed stores four values per RGBA texel instead of one value in
	// the red channel (§3.9; 1.3–1.4x on PoseNet-class models).
	Packed bool
	// SqueezeLogicalShapes enables the shader compiler's size-1 dimension
	// elimination (§4.1; ~1.3x average).
	SqueezeLogicalShapes bool
	// Recycling enables the texture recycler (§4.1.2).
	Recycling bool
	// PagingEnabled pages least-recently-used textures to host memory
	// when device memory exceeds PagingThresholdBytes (§4.1.2).
	PagingEnabled bool
	// PagingThresholdBytes is the device-memory budget; 0 means 512 MiB,
	// "estimated from the screen size" in the browser.
	PagingThresholdBytes int64
}

// DefaultConfig enables every optimization on a WebGL2 full-float device.
func DefaultConfig() Config {
	return Config{
		Device:               glsim.DefaultConfig(),
		Packed:               true,
		SqueezeLogicalShapes: true,
		Recycling:            true,
		PagingEnabled:        true,
		PagingThresholdBytes: 512 << 20,
	}
}

// Backend is the WebGL backend (Section 4.1). It has the highest complexity
// of the three backends, justified in the paper by its two-orders-of-
// magnitude speedup over plain JS.
type Backend struct {
	cfg     Config
	device  *glsim.Device
	manager *textureManager

	mu    sync.Mutex
	data  map[tensor.DataID]*texData
	bytes int64

	useTick atomic.Int64

	pagedBytes   atomic.Int64
	pageOuts     atomic.Int64
	pageIns      atomic.Int64
	kernelsTable map[string]kernels.OverrideKernel
}

// New creates a WebGL backend with the given configuration.
func New(cfg Config) *Backend {
	if cfg.PagingThresholdBytes == 0 {
		cfg.PagingThresholdBytes = 512 << 20
	}
	b := &Backend{
		cfg:    cfg,
		device: glsim.NewDevice(cfg.Device),
		data:   map[tensor.DataID]*texData{},
	}
	b.manager = newTextureManager(b.device, cfg.Recycling)
	b.initKernels()
	return b
}

// Name implements kernels.Backend.
func (b *Backend) Name() string { return "webgl" }

// Device exposes the simulated device for tests and benchmarks.
func (b *Backend) Device() *glsim.Device { return b.device }

// Config returns the backend configuration.
func (b *Backend) Config() Config { return b.cfg }

// Epsilon returns the global numeric epsilon adjusted to the device's
// float precision. On 16-bit devices 1e-8 is not representable and would
// silently round to zero — the log(x+ε) bug of Section 4.1.3 — so the
// backend raises it to 1e-4, exactly as TensorFlow.js does.
func (b *Backend) Epsilon() float64 {
	if b.cfg.Device.HalfFloatOnly {
		return 1e-4
	}
	return 1e-7
}

func (b *Backend) format() glsim.TextureFormat {
	if b.cfg.Packed {
		return glsim.RGBA32F
	}
	return glsim.R32F
}

// newTexData allocates the texture for a container of the given logical
// shape and registers it. It may trigger paging of colder containers.
func (b *Backend) newTexData(id tensor.DataID, shape []int, dtype tensor.DataType) (*texData, error) {
	size := tensor.ShapeSize(shape)
	w, h, err := texShape(size, b.cfg.Packed, b.cfg.Device.MaxTextureSize)
	if err != nil {
		return nil, err
	}
	tex, err := b.manager.acquire(w, h, b.format())
	if err != nil {
		return nil, err
	}
	td := &texData{
		id:      id,
		shape:   tensor.CopyShape(shape),
		dtype:   dtype,
		size:    size,
		tex:     tex,
		packed:  b.cfg.Packed,
		lastUse: b.useTick.Add(1),
	}
	b.mu.Lock()
	if _, dup := b.data[id]; dup {
		b.mu.Unlock()
		b.manager.release(tex)
		return nil, fmt.Errorf("webgl: duplicate write for data id %d", id)
	}
	b.data[id] = td
	b.bytes += td.bytes()
	b.mu.Unlock()

	b.maybePage(td)
	return td, nil
}

// Write implements kernels.Backend.
func (b *Backend) Write(d tensor.DataID, values []float32, shape []int, dtype tensor.DataType) {
	td, err := b.newTexData(d, shape, dtype)
	if err != nil {
		panic(&core.OpError{Kernel: "webgl.Write", Err: err})
	}
	vals := make([]float32, len(values))
	copy(vals, values)
	b.device.Upload(td.tex, vals)
}

// lookup returns the container record for d.
func (b *Backend) lookup(d tensor.DataID) *texData {
	b.mu.Lock()
	td, ok := b.data[d]
	b.mu.Unlock()
	if !ok {
		//lint:ignore operr engine-invariant corruption (lookup of unregistered data id); no kernel to attribute
		panic(fmt.Sprintf("webgl: unknown data id %d", d))
	}
	return td
}

// touch refreshes a container's LRU tick and pages it back onto the device
// if needed. It returns the live texture.
func (b *Backend) touch(td *texData) *glsim.Texture {
	td.lastUse = b.useTick.Add(1)
	if td.tex != nil {
		return td.tex
	}
	// Page back in (Section 4.1.2).
	w, h, err := texShape(td.size, td.packed, b.cfg.Device.MaxTextureSize)
	if err != nil {
		panic(&core.OpError{Kernel: "webgl.PageIn", Err: err})
	}
	format := glsim.R32F
	if td.packed {
		format = glsim.RGBA32F
	}
	tex, err := b.manager.acquire(w, h, format)
	if err != nil {
		panic(&core.OpError{Kernel: "webgl.PageIn", Err: err})
	}
	b.device.Upload(tex, td.paged)
	td.tex = tex
	b.pagedBytes.Add(-td.bytes())
	td.paged = nil
	b.pageIns.Add(1)
	if hub := telemetry.Default(); hub.Active() {
		hub.Emit(telemetry.Event{
			Kind: telemetry.KindPageIn, Name: "page_in", Span: hub.CurrentSpan(),
			Backend: "webgl", Bytes: td.bytes(),
		})
	}
	return tex
}

// maybePage pages out least-recently-used containers while device texture
// memory exceeds the configured threshold. The container passed in (the
// one just allocated) is never selected. Paging is skipped entirely when
// disabled — the behaviour for "users that explicitly manage memory"
// (Section 4.1.2).
func (b *Backend) maybePage(justAllocated *texData) {
	if !b.cfg.PagingEnabled {
		return
	}
	if b.device.TextureBytes() <= b.cfg.PagingThresholdBytes {
		return
	}
	// First give back recycled-but-idle textures.
	b.manager.drainFree()
	if b.device.TextureBytes() <= b.cfg.PagingThresholdBytes {
		return
	}
	// Collect resident candidates, oldest first.
	b.mu.Lock()
	candidates := make([]*texData, 0, len(b.data))
	for _, td := range b.data {
		if td != justAllocated && td.tex != nil {
			candidates = append(candidates, td)
		}
	}
	b.mu.Unlock()
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].lastUse < candidates[j].lastUse })
	// Keep the handful of most-recently-used containers resident: they
	// are the likely inputs of the op being dispatched. Page-out itself
	// drains the command queue first (ReadPixels), so pending programs
	// never lose textures.
	const keepResident = 4
	limit := len(candidates) - keepResident
	for i := 0; i < limit; i++ {
		if b.device.TextureBytes() <= b.cfg.PagingThresholdBytes {
			break
		}
		b.pageOut(candidates[i])
	}
}

// pageOut moves one container to host memory: synchronous readback, then
// the texture is deleted (not recycled — the point is to free device
// memory).
func (b *Backend) pageOut(td *texData) {
	start := time.Now()
	vals := b.device.ReadPixels(td.tex)
	td.paged = vals[:td.size]
	b.device.DeleteTexture(td.tex)
	td.tex = nil
	b.pagedBytes.Add(td.bytes())
	b.pageOuts.Add(1)
	if hub := telemetry.Default(); hub.Active() {
		hub.Emit(telemetry.Event{
			Kind: telemetry.KindPageOut, Name: "page_out", Span: hub.CurrentSpan(),
			Backend: "webgl", Start: start,
			DurMS: float64(time.Since(start)) / float64(time.Millisecond),
			Bytes: td.bytes(),
		})
	}
}

// ReadSync implements kernels.Backend: it blocks until all pending device
// work completes (gl.readPixels; Figure 2), then decodes the values.
func (b *Backend) ReadSync(d tensor.DataID) []float32 {
	td := b.lookup(d)
	b.mu.Lock()
	if td.tex == nil {
		out := make([]float32, td.size)
		copy(out, td.paged)
		b.mu.Unlock()
		return out
	}
	tex := td.tex
	td.lastUse = b.useTick.Add(1)
	b.mu.Unlock()
	vals := b.device.ReadPixels(tex)
	return vals[:td.size]
}

// Read implements kernels.Backend: the asynchronous download of Section
// 4.1.1. On WebGL 2 devices it inserts a fence (gl.fenceSync) and resolves
// when the fence fires; on WebGL 1 devices it polls the
// EXT_disjoint_timer_query done bit. Either way the caller's goroutine —
// the "main thread" — is never blocked (Figure 3).
func (b *Backend) Read(d tensor.DataID) *jsenv.Future[[]float32] {
	td := b.lookup(d)
	fut := jsenv.NewFuture[[]float32]()
	b.mu.Lock()
	if td.tex == nil {
		out := make([]float32, td.size)
		copy(out, td.paged)
		b.mu.Unlock()
		go fut.Resolve(out, nil)
		return fut
	}
	tex := td.tex
	td.lastUse = b.useTick.Add(1)
	b.mu.Unlock()

	finish := func() {
		defer func() {
			if r := recover(); r != nil {
				fut.Resolve(nil, fmt.Errorf("webgl: async read: %v", r))
			}
		}()
		vals := b.device.ReadPixels(tex)
		fut.Resolve(vals[:td.size], nil)
	}

	if b.cfg.Device.WebGLVersion >= 2 {
		fence := b.device.FenceSync()
		issued := time.Now()
		go func() {
			<-fence
			if hub := telemetry.Default(); hub.Active() {
				// The fence event records how long the device took to
				// signal — the async-readback latency of §4.1.1.
				hub.Emit(telemetry.Event{
					Kind: telemetry.KindFence, Name: "fenceSync", Span: hub.CurrentSpan(),
					Backend: "webgl", Start: issued,
					DurMS: float64(time.Since(issued)) / float64(time.Millisecond),
				})
			}
			finish()
		}()
		return fut
	}
	// WebGL 1: poll the disjoint-timer-query bit.
	q := b.device.BeginQuery()
	b.device.EndQuery(q)
	go func() {
		for !q.Done() {
			time.Sleep(100 * time.Microsecond)
		}
		finish()
	}()
	return fut
}

// DisposeData implements kernels.Backend. The texture goes back to the
// recycler rather than being deleted (Section 4.1.2).
func (b *Backend) DisposeData(d tensor.DataID) {
	b.mu.Lock()
	td, ok := b.data[d]
	if ok {
		delete(b.data, d)
		b.bytes -= td.bytes()
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	if td.tex != nil {
		b.manager.release(td.tex)
		td.tex = nil
	}
	if td.paged != nil {
		b.pagedBytes.Add(-td.bytes())
		td.paged = nil
	}
}

// Memory implements kernels.Backend.
func (b *Backend) Memory() kernels.MemoryInfo {
	b.mu.Lock()
	numBufs := len(b.data)
	bytes := b.bytes
	b.mu.Unlock()
	return kernels.MemoryInfo{
		NumBuffers:   numBufs,
		NumBytes:     bytes,
		NumTextures:  b.device.NumTextures(),
		TextureBytes: b.device.TextureBytes(),
		FreeTextures: b.manager.freeCount(),
		PagedBytes:   b.pagedBytes.Load(),
		Unreliable:   false,
	}
}

// PagingStats reports page-out / page-in counts for tests.
func (b *Backend) PagingStats() (outs, ins int64) {
	return b.pageOuts.Load(), b.pageIns.Load()
}

// DeviceMemory renders the backend's device-side memory picture for leak
// diagnostics: texture residency, recycler occupancy (free textures
// awaiting reuse, §4.1.2) and paging pressure (bytes parked on the host
// plus page-out/in counts and the device's texture high-water mark).
func (b *Backend) DeviceMemory() *telemetry.DeviceMemory {
	return &telemetry.DeviceMemory{
		Backend:          b.Name(),
		NumTextures:      b.device.NumTextures(),
		TextureBytes:     b.device.TextureBytes(),
		FreeTextures:     b.manager.freeCount(),
		PagedBytes:       b.pagedBytes.Load(),
		PageOuts:         b.pageOuts.Load(),
		PageIns:          b.pageIns.Load(),
		PeakTextureBytes: b.device.PeakTextureBytes(),
	}
}

// RecyclingStats reports texture acquisitions and recycle hits.
func (b *Backend) RecyclingStats() (acquires, hits int64) { return b.manager.stats() }

// Time implements kernels.Backend. KernelMS is the device's modelled GPU
// time for what f submitted, excluding upload and download (Section 3.8:
// "the WebGL backend measures the exact GPU time"): the difference of two
// readings of a monotonic clock, so calls nest and add — the engine's
// observed path times every kernel inside whatever tf.time() the caller
// has open.
func (b *Backend) Time(f func()) kernels.TimeInfo {
	before := b.deviceClock()
	start := time.Now()
	f()
	after := b.deviceClock()
	return kernels.TimeInfo{
		WallMS:      float64(time.Since(start)) / float64(time.Millisecond),
		KernelMS:    float64(after-before) / 1e9,
		HasKernelMS: true,
	}
}

// deviceClock drains the command queue and reads the modelled device
// clock: the time of everything submitted so far and of nothing else.
func (b *Backend) deviceClock() int64 {
	<-b.device.FenceSync()
	return b.device.ClockPS()
}

// Close implements kernels.Backend.
func (b *Backend) Close() {
	b.manager.drainFree()
	b.device.Close()
}

// KernelOverride implements kernels.Overrider.
func (b *Backend) KernelOverride(name string) (kernels.OverrideKernel, bool) {
	k, ok := b.kernelsTable[name]
	return k, ok
}

var (
	_ kernels.Backend   = (*Backend)(nil)
	_ kernels.Overrider = (*Backend)(nil)
)
