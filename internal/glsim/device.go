package glsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// The modelled device's cost constants, in picoseconds. They are the whole
// timing model (DESIGN.md, substitution 2, derives them): one dispatch
// costs launchPS plus the work it declares — invocations, texture fetches,
// ALU operations (workgroup-memory reads cost an ALU operation) — spread
// over min(SimulatedCores, invocations) shader cores. They are constants,
// not Config fields: a number printed by the clock must mean the same
// thing on every host and in every PR.
const (
	launchPS = 100_000
	invokePS = 28_000
	fetchPS  = 1_000
	aluPS    = 250
)

// Config describes the simulated device's capabilities, the properties the
// paper's backend has to detect and adapt to (Section 4.1.3).
type Config struct {
	// MaxTextureSize is the maximum texture dimension (gl.MAX_TEXTURE_SIZE).
	MaxTextureSize int
	// WebGLVersion is 1 or 2. Version 2 exposes gl.fenceSync; version 1
	// devices fall back to the EXT_disjoint_timer_query bit polling
	// described in Section 4.1.1.
	WebGLVersion int
	// HalfFloatOnly marks a device whose float textures are 16-bit, like
	// iOS Safari (Section 4.1.3).
	HalfFloatOnly bool
	// DisjointTimerQuery enables the GPU timing extension.
	DisjointTimerQuery bool
	// Workers is the number of host goroutines used to execute texel
	// invocations; 0 means NumCPU.
	Workers int
	// SimulatedCores is the number of shader cores the device's timing
	// model assumes. Programs execute functionally on the host, but the
	// device's clock (the disjoint-timer-query / tf.time() backing)
	// advances by the work each dispatch declares, divided by the
	// parallelism available to it, min(SimulatedCores, invocations). 0
	// means 64, roughly an integrated laptop GPU's effective fragment
	// throughput. See DESIGN.md on the WebGL substitution.
	SimulatedCores int
	// QueueDepth is the command queue capacity; 0 means 1024.
	QueueDepth int
	// TextureAllocCost is the modelled driver cost of allocating a
	// texture, charged to the device clock; deletion charges half. The
	// paper's recycler exists because "disposing and re-allocating WebGL
	// textures is relatively expensive" (Section 4.1.2); without a cost
	// model the ablation cannot show that. 0 means 50µs; negative
	// disables.
	TextureAllocCost time.Duration
}

// DefaultConfig returns a WebGL2, full-float device.
func DefaultConfig() Config {
	return Config{
		MaxTextureSize:     16384,
		WebGLVersion:       2,
		DisjointTimerQuery: true,
	}
}

// InlineInputs is how many input textures a queued command binds without a
// slice of its own: FusedBatchNorm's five. A call with more (a Concat of
// many operands) copies its list once per dispatch.
const InlineInputs = 5

// command is one entry in the GPU command queue.
type command struct {
	run func()
	// A program's dispatch is the program itself, not a closure over it:
	// one allocation fewer per enqueue. A program's inputs are bound to the
	// command, not to the program, so that one compiled program serves
	// every dispatch of its shapes.
	prog  *Program
	cprog *ComputeProgram
	// An upload or a readback is its texture (out) and its host buffer
	// (vals): an upload's staged values, which the command stores and
	// gives back to the device's staging pool, or the slice a readback
	// copies the texels into, sending on done when it has.
	out  *Texture
	vals []float32
	done chan struct{}
	nin  int
	in   [InlineInputs]*Texture
	more []*Texture
}

// inputs returns the textures the command's program samples, in order.
func (c *command) inputs() []*Texture {
	if c.more != nil {
		return c.more
	}
	return c.in[:c.nin]
}

// do executes cmd on the GPU goroutine.
func (d *Device) do(cmd command) {
	switch {
	case cmd.prog != nil:
		d.execute(cmd.prog, cmd.inputs(), cmd.out)
	case cmd.cprog != nil:
		d.executeCompute(cmd.cprog, cmd.inputs(), cmd.out)
	case cmd.run != nil:
		cmd.run()
	case cmd.done != nil: // a readback
		copy(cmd.vals, cmd.out.data)
		d.stats.reads.Add(1)
		cmd.done <- struct{}{}
	default: // an upload
		for i, v := range cmd.vals {
			cmd.out.store(i, v)
		}
		d.staging.Put(cmd.vals)
		d.stats.uploads.Add(1)
	}
}

// Stats counts device activity for tests and ablation benchmarks. Fetches,
// SharedReads and ALUOps total the Work of every program executed.
type Stats struct {
	ProgramsExecuted int64
	TexelInvocations int64
	Fetches          int64
	SharedReads      int64
	ALUOps           int64
	TexturesCreated  int64
	TexturesDeleted  int64
	Uploads          int64
	Readbacks        int64
}

// Device is the simulated GPU. Commands execute strictly in submission
// order on a dedicated goroutine (the "GPU thread" of Section 4.1.1);
// within one program execution, texels run in parallel across Workers
// cores, matching the fragment-shader model of Figure 4.
type Device struct {
	cfg     Config
	queue   chan command
	done    chan struct{}
	wg      sync.WaitGroup
	workers int

	// bindMu serialises dispatches — the GPU goroutine's, and a closed
	// device's callers', who run their commands inline — and guards what
	// a dispatch reuses: bound holds the host slices of the executing
	// program's inputs, staged the buffer its Setup fills, shared the first
	// core's workgroup memory, cores the device's other cores.
	bindMu sync.Mutex
	bound  [][]float32
	staged []float32
	shared []float32
	cores  *cores
	closed bool

	// staging holds uploads' copies of their values until the queue
	// stores them; replies are readbacks' one-slot channels.
	staging *bufpool.Pool
	replies sync.Pool

	mu           sync.Mutex
	textureBytes int64
	numTextures  int
	peakTexBytes int64

	stats struct {
		programs atomic.Int64
		texels   atomic.Int64
		fetches  atomic.Int64
		shared   atomic.Int64
		alu      atomic.Int64
		created  atomic.Int64
		deleted  atomic.Int64
		uploads  atomic.Int64
		reads    atomic.Int64
	}

	// clockPS is the modelled device time in picoseconds. It only moves
	// forward, by amounts that are functions of what was dispatched,
	// created and deleted — never of how long the host took.
	clockPS atomic.Int64
}

// NewDevice creates and starts a simulated device.
func NewDevice(cfg Config) *Device {
	if cfg.MaxTextureSize == 0 {
		cfg.MaxTextureSize = 16384
	}
	if cfg.WebGLVersion == 0 {
		cfg.WebGLVersion = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.SimulatedCores <= 0 {
		cfg.SimulatedCores = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.TextureAllocCost == 0 {
		cfg.TextureAllocCost = 50 * time.Microsecond
	}
	d := &Device{
		cfg:     cfg,
		queue:   make(chan command, cfg.QueueDepth),
		done:    make(chan struct{}),
		workers: cfg.Workers,
		staging: bufpool.New(),
		replies: sync.Pool{New: func() any { return make(chan struct{}, 1) }},
	}
	d.staging.SetPoison(bufpool.RaceEnabled)
	d.wg.Add(1)
	go d.run()
	return d
}

// Config returns the device capabilities.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) run() {
	defer d.wg.Done()
	for {
		select {
		case cmd := <-d.queue:
			d.do(cmd)
		case <-d.done:
			for {
				select {
				case cmd := <-d.queue:
					d.do(cmd)
				default:
					return
				}
			}
		}
	}
}

// submit enqueues a command to run, blocking if the queue is full (as the
// real driver does when the command buffer fills).
func (d *Device) submit(run func()) { d.enqueue(command{run: run}) }

func (d *Device) enqueue(cmd command) {
	select {
	case <-d.done:
		// Device closed: execute inline so callers don't hang.
		d.do(cmd)
	default:
		d.queue <- cmd
	}
}

// Close drains the queue, stops the GPU goroutine and then the device's
// cores. Commands submitted afterwards run inline on their callers, one
// core each.
func (d *Device) Close() {
	select {
	case <-d.done:
		return
	default:
	}
	close(d.done)
	d.wg.Wait()
	d.bindMu.Lock()
	defer d.bindMu.Unlock()
	d.closed = true
	if c := d.cores; c != nil {
		d.cores = nil
		close(c.ranges)
		c.exited.Wait()
	}
}

// ---------------------------------------------------------------------------
// Textures

// CreateTexture allocates a texture. The handle, the modelled driver cost
// and the device-memory accounting are synchronous; the host slice behind
// the texture is made by a command queued here, ahead of every command that
// can touch it, so an enqueue on the dispatching goroutine never pays for
// (or starts a garbage collection with) megabytes of zeroed host memory
// while the workers hold every P (Section 4.1.1: enqueueing is cheap).
func (d *Device) CreateTexture(width, height int, format TextureFormat) (*Texture, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("glsim: invalid texture size %dx%d", width, height)
	}
	if width > d.cfg.MaxTextureSize || height > d.cfg.MaxTextureSize {
		return nil, fmt.Errorf("glsim: texture %dx%d exceeds MAX_TEXTURE_SIZE %d", width, height, d.cfg.MaxTextureSize)
	}
	d.chargeAlloc(d.cfg.TextureAllocCost)
	t := &Texture{
		Width:     width,
		Height:    height,
		Format:    format,
		HalfFloat: d.cfg.HalfFloatOnly,
		device:    d,
	}
	d.mu.Lock()
	d.textureBytes += t.Bytes()
	d.numTextures++
	if d.textureBytes > d.peakTexBytes {
		d.peakTexBytes = d.textureBytes
	}
	d.mu.Unlock()
	d.stats.created.Add(1)
	d.submit(func() { t.data = make([]float32, t.Len()) })
	return t, nil
}

// DeleteTexture releases a texture. The deletion is queued behind pending
// commands so in-flight programs never lose their inputs.
func (d *Device) DeleteTexture(t *Texture) {
	d.submit(func() {
		if t.deleted {
			return
		}
		d.chargeAlloc(d.cfg.TextureAllocCost / 2)
		t.deleted = true
		t.data = nil
		d.mu.Lock()
		d.textureBytes -= t.Bytes()
		d.numTextures--
		d.mu.Unlock()
		d.stats.deleted.Add(1)
	})
}

// Upload queues a texSubImage2D-style data upload into the texture. values
// are laid out in flat texel-major order and may be shorter than the
// texture (trailing texels stay zero). Like texSubImage2D it copies values
// before it returns, into a staging buffer from the device's recycler that
// the queued upload gives back once it has stored the texels, so the
// caller may reuse values at once; a warmed upload allocates nothing.
func (d *Device) Upload(t *Texture, values []float32) {
	if len(values) > t.Len() {
		panic(fmt.Sprintf("glsim: upload of %d values into %v", len(values), t))
	}
	staged := d.staging.Get(len(values))
	copy(staged, values)
	d.enqueue(command{out: t, vals: staged})
}

// ReadPixels synchronously downloads the texture: it blocks the calling
// goroutine until all previously submitted commands have executed, exactly
// like gl.readPixels blocks the JS main thread (Figure 2), then returns a
// copy of the texel data. The copy is the one allocation it makes: it
// waits on a one-slot channel recycled across readbacks.
func (d *Device) ReadPixels(t *Texture) []float32 {
	out := make([]float32, t.Len())
	done := d.replies.Get().(chan struct{})
	d.enqueue(command{out: t, vals: out, done: done})
	<-done
	d.replies.Put(done)
	return out
}

// ---------------------------------------------------------------------------
// Synchronization (Section 4.1.1)

// FenceSync inserts a fence into the command queue (gl.fenceSync, WebGL
// 2.0) and returns a channel closed when the GPU reaches it.
func (d *Device) FenceSync() <-chan struct{} {
	ch := make(chan struct{})
	d.submit(func() { close(ch) })
	return ch
}

// Query is a disjoint-timer-query object (WebGL 1.0 path): its done bit
// flips when the enclosing commands have executed and must be polled.
type Query struct {
	done    atomic.Bool
	beginPS int64 // written and read on the GPU goroutine only
	elapsed atomic.Int64
}

// Done reports whether the query's commands have completed. Callers poll
// this, as the paper's WebGL 1.0 implementation polls the extension bit.
func (q *Query) Done() bool { return q.done.Load() }

// ElapsedMS returns the modelled GPU time between BeginQuery and EndQuery
// once Done reports true.
func (q *Query) ElapsedMS() float64 { return float64(q.elapsed.Load()) / 1e9 }

// BeginQuery starts a disjoint timer query; EndQuery closes it. The query's
// done bit flips when the GPU executes the end command.
func (d *Device) BeginQuery() *Query {
	if !d.cfg.DisjointTimerQuery {
		panic("glsim: EXT_disjoint_timer_query not supported on this device")
	}
	q := &Query{}
	d.submit(func() { q.beginPS = d.clockPS.Load() })
	return q
}

// EndQuery marks the end of the query window.
func (d *Device) EndQuery(q *Query) {
	d.submit(func() {
		q.elapsed.Store(d.clockPS.Load() - q.beginPS)
		q.done.Store(true)
	})
}

// ---------------------------------------------------------------------------
// Program execution

// Work is what one dispatch of a program costs the modelled device: the
// texture fetches, workgroup-memory reads and arithmetic operations its
// invocations perform in total. Programs declare it as a closed form of
// their shapes; the device never measures it.
type Work struct {
	Fetches int64
	Shared  int64
	ALU     int64
}

// Program is a compiled fragment-shader program: a name (for profiling),
// the work one dispatch costs the modelled device, and the main function.
// The textures it samples are bound per dispatch (Execute), the way a GL
// program's sampler uniforms are, so one compiled program serves every
// dispatch of its shapes.
//
// Main computes the output texels [lo, hi). in holds the host slices of
// the dispatch's input textures, in order — bound once per dispatch — and,
// when Setup is set, the buffer it filled. dst is the output texture's own
// storage for exactly those texels — (hi-lo)*channels floats, texel-major —
// and Main must write every element of it, may read in, and must write
// nothing else. The device calls Main concurrently on disjoint ranges whose
// boundaries it chooses, so the value Main writes for a texel may depend
// only on that texel's index and the inputs: Figure 4's model, "main() runs
// in the context of each output value and in parallel, with no shared
// memory", stated over a range so that a program can decode coordinates
// and clip its window once per run of values instead of once per value. On
// half-float textures the device rounds dst through fp16 after Main
// returns.
type Program struct {
	Name string
	Work Work
	// Setup, when set, runs once per dispatch before any of Main's ranges,
	// on the inputs' host slices, and fills staged, Staged values that
	// every range reads after them: a buffer the program computes from its
	// inputs once, whatever the worker count (a transposed operand). The
	// buffer is the device's, reused by every dispatch, one at a time.
	Setup  func(in [][]float32, staged []float32)
	Staged int
	Main   func(in [][]float32, lo, hi int, dst []float32)
}

// Execute binds inputs, the textures p samples, and output to the
// framebuffer, and runs the program over every output texel, parallelized
// across the device's cores. The call only enqueues; it returns
// immediately, which is what makes op dispatch sub-millisecond while the
// GPU works in the background (Section 4.1.1). It keeps neither p's
// inputs slice nor anything but the textures in it.
func (d *Device) Execute(p *Program, inputs []*Texture, out *Texture) {
	d.enqueue(command{prog: p, out: out}.bind(inputs))
}

// bind returns c with inputs bound: inline, or a copy of the list when it
// has more than InlineInputs.
func (c command) bind(inputs []*Texture) command {
	c.nin = len(inputs)
	if len(inputs) > InlineInputs {
		c.more = append([]*Texture(nil), inputs...)
	} else {
		copy(c.in[:], inputs)
	}
	return c
}

// bindInputs returns the host slices of inputs in the device's bound list,
// which the caller, holding bindMu, clears when its dispatch is done.
func (d *Device) bindInputs(inputs []*Texture) [][]float32 {
	in := d.bound[:0]
	for _, t := range inputs {
		in = append(in, t.data)
	}
	return in
}

func (d *Device) execute(p *Program, inputs []*Texture, out *Texture) {
	d.bindMu.Lock()
	defer d.bindMu.Unlock()
	in := d.bindInputs(inputs)
	if p.Setup != nil {
		if cap(d.staged) < p.Staged {
			d.staged = make([]float32, p.Staged)
		}
		staged := d.staged[:p.Staged]
		p.Setup(in, staged)
		in = append(in, staged)
	}
	d.bound = in
	defer clear(d.bound)
	texels := out.Texels()
	d.spread(job{prog: p, out: out, in: in}, texels)
	d.stats.texels.Add(int64(texels))
	d.charge(p.Work, texels)
}

// cores are a device's cores past the first, which is the goroutine
// dispatching. They start at the first dispatch spread over more than one
// core and live until Close, each taking ranges of the dispatch in job.
type cores struct {
	// ranges carries a dispatch's ranges past the first, at most one per
	// core; its buffer holds one for each core, so handing them out never
	// waits.
	ranges  chan [2]int
	job     job
	pending sync.WaitGroup
	exited  sync.WaitGroup
}

// A job is one dispatch as the cores see it: a fragment program's texel
// ranges or a compute program's workgroup ranges.
type job struct {
	prog  *Program
	in    [][]float32
	cprog *ComputeProgram
	out   *Texture
}

// run computes the range [lo, hi) of j; shared is the calling core's
// workgroup memory, kept between dispatches.
func (j *job) run(lo, hi int, shared *[]float32) {
	if j.prog != nil {
		j.out.render(j.prog, j.in, lo, hi)
		return
	}
	n := j.cprog.SharedSize
	if cap(*shared) < n {
		*shared = make([]float32, n)
	}
	s := (*shared)[:n]
	clear(s)
	for g := lo; g < hi; g++ {
		j.cprog.Main(j.in, g, s, j.out.data)
	}
}

// spread runs j over [0, n) in one range per core, at most n of them, and
// returns when every range is done. The caller holds bindMu.
func (d *Device) spread(j job, n int) {
	workers := min(d.workers, n)
	if workers <= 1 || d.closed {
		j.run(0, n, &d.shared)
		return
	}
	c := d.cores
	if c == nil {
		c = &cores{ranges: make(chan [2]int, d.workers-1)}
		c.exited.Add(d.workers - 1)
		for w := 1; w < d.workers; w++ {
			go c.work()
		}
		d.cores = c
	}
	c.job = j
	chunk := (n + workers - 1) / workers
	for lo := chunk; lo < n; lo += chunk {
		c.pending.Add(1)
		c.ranges <- [2]int{lo, min(lo+chunk, n)}
	}
	c.job.run(0, chunk, &d.shared)
	c.pending.Wait()
	c.job = job{}
}

// work is one core: it runs the ranges handed to it until Close.
func (c *cores) work() {
	defer c.exited.Done()
	var shared []float32
	for r := range c.ranges {
		c.job.run(r[0], r[1], &shared)
		c.pending.Done()
	}
}

// charge advances the clock by one dispatch: the launch cost plus the
// declared work spread over the shader cores the dispatch can occupy.
func (d *Device) charge(w Work, invocations int) {
	parallelism := d.cfg.SimulatedCores
	if invocations < parallelism {
		parallelism = invocations
	}
	if parallelism < 1 {
		parallelism = 1
	}
	work := int64(invocations)*invokePS + w.Fetches*fetchPS + (w.Shared+w.ALU)*aluPS
	d.clockPS.Add(launchPS + work/int64(parallelism))
	d.stats.programs.Add(1)
	d.stats.fetches.Add(w.Fetches)
	d.stats.shared.Add(w.Shared)
	d.stats.alu.Add(w.ALU)
}

// chargeAlloc advances the clock by the modelled driver cost of creating
// or deleting a texture; a negative TextureAllocCost charges nothing.
func (d *Device) chargeAlloc(cost time.Duration) {
	if cost > 0 {
		d.clockPS.Add(cost.Nanoseconds() * 1000)
	}
}

// ---------------------------------------------------------------------------
// Timing and accounting

// ClockPS returns the modelled device time in picoseconds. Programs and
// texture deletions advance it on the GPU goroutine as the queue reaches
// them (texture creation, which is synchronous, at once), so a caller that
// wants the time of everything it has submitted waits on FenceSync first.
// It backs tf.time()'s kernelMs on the WebGL backend (Section 3.8) and
// excludes upload and download, as the paper specifies.
func (d *Device) ClockPS() int64 { return d.clockPS.Load() }

// TextureBytes returns current device memory held by textures.
func (d *Device) TextureBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.textureBytes
}

// NumTextures returns the number of live textures.
func (d *Device) NumTextures() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numTextures
}

// PeakTextureBytes returns the high-water mark of device texture memory —
// the paging-pressure gauge the leak diagnostics report alongside the
// recycler's occupancy.
func (d *Device) PeakTextureBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakTexBytes
}

// Stats returns a snapshot of device activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		ProgramsExecuted: d.stats.programs.Load(),
		TexelInvocations: d.stats.texels.Load(),
		Fetches:          d.stats.fetches.Load(),
		SharedReads:      d.stats.shared.Load(),
		ALUOps:           d.stats.alu.Load(),
		TexturesCreated:  d.stats.created.Load(),
		TexturesDeleted:  d.stats.deleted.Load(),
		Uploads:          d.stats.uploads.Load(),
		Readbacks:        d.stats.reads.Load(),
	}
}
