// Package bufpool implements the engine-level buffer recycler: the
// generalization of the WebGL backend's texture recycler (paper §4.1.2,
// "disposing and re-allocating textures is relatively expensive, so we
// reuse them") to the native/cpu data plane. Disposed buffers park on
// power-of-two size-class free lists instead of returning to the garbage
// collector; allocation checks the free list before make, so a model's
// steady-state inference loop recycles the same few buffers forever.
//
// Pools are per-backend (and backends are per-engine), so serving replicas
// never contend on a shared free list — the same isolation the texture
// recycler gets from per-context texture managers.
//
// A pool is bounded two ways: a high-water byte cap (puts beyond it are
// dropped to the GC) and an idle-shrink policy (classes that have not been
// touched for a while are trimmed opportunistically during Put), so a
// burst of large batches cannot pin its peak working set forever.
//
// Poison mode scribbles every freed buffer with NaN so a
// recycler-induced use-after-dispose corrupts outputs loudly
// — NaNs propagate and trip the debug-mode NaN check and the bit-identity
// suites — instead of silently reading stale-but-plausible values.
package bufpool

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// minClassBits is the smallest pooled class (32 elements); smaller
	// requests round up. Sub-cacheline buffers are cheaper to make than to
	// track.
	minClassBits = 5
	// maxClassBits is the largest pooled class (2^26 = 64M elements,
	// 256 MiB); larger requests bypass the pool entirely.
	maxClassBits = 26
	numClasses   = maxClassBits - minClassBits + 1

	// trimEvery is how many Puts pass between opportunistic idle scans —
	// the only time the pool consults the wall clock.
	trimEvery = 1024
	// idleAfter is how long a class may go untouched before a scan drops
	// its free list.
	idleAfter = 30 * time.Second
)

// DefaultMaxBytes is the default high-water cap per pool.
const DefaultMaxBytes = 256 << 20

// class is one power-of-two free list.
type class struct {
	free [][]float32
	// lastUse is the trim clock: updated on every hit and put, compared
	// against idleAfter during opportunistic scans.
	lastUse time.Time
}

// Stats is a point-in-time snapshot of a pool's counters.
type Stats struct {
	// Hits and Misses count Get calls served from a free list vs make.
	Hits, Misses int64
	// RecycledBytes is the cumulative bytes served from free lists.
	RecycledBytes int64
	// PoolBytes is the bytes currently parked on free lists.
	PoolBytes int64
	// FreeBuffers is the number of buffers currently parked.
	FreeBuffers int
}

// elemBytes is the size of one pooled element.
const elemBytes = 4

// Pool is a size-class recycler of float32 buffers — the engine's data
// plane and the native kernels' scratch. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	classes   [numClasses]class
	poolBytes int64
	freeBufs  int
	maxBytes  int64
	putCount  int64

	poison atomic.Bool

	hits, misses, recycled atomic.Int64
}

// New returns an empty pool with the default high-water cap.
func New() *Pool { return &Pool{maxBytes: DefaultMaxBytes} }

// SetMaxBytes sets the high-water cap: Puts that would push the parked
// bytes beyond it are dropped to the GC. n <= 0 restores the default.
func (p *Pool) SetMaxBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBytes
	}
	p.mu.Lock()
	p.maxBytes = n
	p.mu.Unlock()
}

// SetPoison toggles poison mode: freed buffers are scribbled with NaN on
// Put.
func (p *Pool) SetPoison(on bool) { p.poison.Store(on) }

// Poison reports whether poison mode is on.
func (p *Pool) Poison() bool { return p.poison.Load() }

// classFor returns the class index whose buffers hold at least n elements,
// or -1 when n is outside the pooled range.
func classFor(n int) int {
	if n == 0 {
		return -1
	}
	c := 0
	for 1<<(c+minClassBits) < n {
		c++
		if c >= numClasses {
			return -1
		}
	}
	return c
}

// classSize is the capacity of class c's buffers.
func classSize(c int) int { return 1 << (c + minClassBits) }

// Get returns a buffer with len n. The contents are NOT zeroed — a
// recycled buffer holds stale (or poisoned) values; callers that need
// zeros must clear it. Buffers outside the pooled size range come straight
// from make and will not recycle.
func (p *Pool) Get(n int) []float32 {
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]float32, n)
	}
	p.mu.Lock()
	cl := &p.classes[c]
	if k := len(cl.free); k > 0 {
		buf := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		p.poolBytes -= int64(cap(buf)) * elemBytes
		p.freeBufs--
		cl.lastUse = time.Now()
		p.mu.Unlock()
		p.hits.Add(1)
		p.recycled.Add(int64(n) * elemBytes)
		return buf[:n]
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return make([]float32, n, classSize(c))
}

// Put parks a buffer for reuse. Only buffers whose capacity is exactly a
// class size are accepted (everything Get hands out qualifies); foreign
// buffers are left to the GC. Put drops the buffer instead when the pool
// is at its high-water cap.
func (p *Pool) Put(buf []float32) {
	c := classFor(cap(buf))
	if c < 0 || classSize(c) != cap(buf) {
		return
	}
	if p.poison.Load() {
		poisonFill(buf[:cap(buf)])
	}
	bytes := int64(cap(buf)) * elemBytes
	now := time.Time{}
	p.mu.Lock()
	p.putCount++
	scan := p.putCount%trimEvery == 0
	if p.poolBytes+bytes > p.maxBytes {
		if scan {
			now = time.Now()
			p.trimLocked(now)
		}
		p.mu.Unlock()
		return
	}
	cl := &p.classes[c]
	cl.free = append(cl.free, buf[:cap(buf)])
	p.poolBytes += bytes
	p.freeBufs++
	if scan {
		now = time.Now()
	}
	cl.lastUse = latest(cl.lastUse, now)
	if scan {
		p.trimLocked(now)
	}
	p.mu.Unlock()
}

func latest(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	if a.IsZero() && b.IsZero() {
		return time.Now()
	}
	return a
}

// trimLocked drops the free lists of classes idle longer than idleAfter.
// Caller holds p.mu.
func (p *Pool) trimLocked(now time.Time) {
	for i := range p.classes {
		cl := &p.classes[i]
		if len(cl.free) == 0 || now.Sub(cl.lastUse) < idleAfter {
			continue
		}
		for j := range cl.free {
			p.poolBytes -= int64(cap(cl.free[j])) * elemBytes
			cl.free[j] = nil
		}
		p.freeBufs -= len(cl.free)
		cl.free = nil
	}
}

// Drain empties every free list, returning parked memory to the GC.
func (p *Pool) Drain() {
	p.mu.Lock()
	for i := range p.classes {
		p.classes[i].free = nil
	}
	p.poolBytes = 0
	p.freeBufs = 0
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	bytes, bufs := p.poolBytes, p.freeBufs
	p.mu.Unlock()
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		RecycledBytes: p.recycled.Load(),
		PoolBytes:     bytes,
		FreeBuffers:   bufs,
	}
}

// poisonFill scribbles quiet NaN over buf: any arithmetic on it yields NaN,
// so corruption propagates to outputs.
func poisonFill(buf []float32) {
	nan := float32(math.NaN())
	for i := range buf {
		buf[i] = nan
	}
}
