package native

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared worker pool. One process gets one pool of GOMAXPROCS
// persistent goroutines, shared by every native Backend instance — this
// is the inter-op side of the parallelism split: N serving replicas
// executing concurrently draw helpers from the same fixed pool, so total
// kernel concurrency is bounded by the hardware no matter how many
// engines exist. The intra-op side — how many chunks of one kernel run
// at once — is each backend's workers budget (parallelFor below).
//
// Dispatch is reservation-based: a parallelFor only hands work to
// workers that are idle right now, and otherwise runs the chunks on the
// calling goroutine. Under inter-op contention the pool therefore
// degrades to sequential per-kernel execution instead of queueing —
// a caller is never blocked behind another replica's kernel.

// workerPool is a fixed set of goroutines receiving closures.
type workerPool struct {
	tasks chan func()
	idle  atomic.Int64
}

var sharedPool = newWorkerPool(runtime.GOMAXPROCS(0))

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{tasks: make(chan func())}
	p.idle.Store(int64(n))
	for i := 0; i < n; i++ {
		go p.work()
	}
	return p
}

func (p *workerPool) work() {
	for fn := range p.tasks {
		fn()
		p.idle.Add(1)
	}
}

// tryDispatch runs fn on an idle worker, reserving it first; it reports
// false (and runs nothing) when every worker is busy.
func (p *workerPool) tryDispatch(fn func()) bool {
	for {
		n := p.idle.Load()
		if n <= 0 {
			return false
		}
		if p.idle.CompareAndSwap(n, n-1) {
			p.tasks <- fn
			return true
		}
	}
}

// chunkFlops is the arithmetic cost below which a chunk is not worth
// handing to another goroutine: fork/join and cache-transfer overhead
// would exceed the compute. Grain sizes everywhere derive from this one
// constant and the kernel's per-item cost estimate, replacing the old
// hand-picked grains (2, 8, 16, 16384) that under-split large kernels
// and over-split small ones.
const chunkFlops = 32 * 1024

// maxChunks caps the chunk count: beyond the point where every worker
// has a deep queue of chunks, more chunks only add scheduling overhead.
const maxChunks = 256

// chunkBounds returns chunk i of [0, n) split into c near-equal chunks. The layout is a
// pure function of n and c — never of the worker count or of runtime
// timing — which is half of the bit-stability story: every worker count
// sees the same chunk boundaries. The other half is that kernels never
// split a single output element's accumulation across chunks, so each
// output is produced by one sequential loop regardless of scheduling.
func chunkBounds(n, c, i int) (lo, hi int) {
	size := n / c
	rem := n % c
	lo = i*size + min(i, rem)
	hi = lo + size
	if i < rem {
		hi++
	}
	return lo, hi
}

// parallelFor shards [0, n) across the shared pool. costPerItem is the
// kernel's estimate of the arithmetic per index (flops); the chunk grain
// is derived from it so that each chunk carries at least chunkFlops of
// work; a costPerItem below 1 counts as 1. Nothing here reads a clock, and
// nothing but the kernel's estimate sizes the grain.
//
// Results are bit-identical for every workers setting: chunk boundaries
// are a pure function of (n, chunks), and kernels never split one output
// element's accumulation across chunks. Only wall time varies.
func (b *Backend) parallelFor(n, costPerItem int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain := max(chunkFlops/max(costPerItem, 1), 1)
	chunks := (n + grain - 1) / grain
	if chunks > maxChunks {
		chunks = maxChunks
	}
	workers := b.Workers()
	if chunks <= 1 || workers <= 1 {
		fn(0, n)
		return
	}

	// Claim chunks from a shared counter: the caller participates, and up
	// to workers-1 idle pool goroutines help. Work-stealing by index, so
	// an uneven chunk mix still balances.
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= chunks {
				return
			}
			fn(chunkBounds(n, chunks, i))
		}
	}
	var wg sync.WaitGroup
	helpers := min(workers-1, chunks-1)
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		if !sharedPool.tryDispatch(func() {
			defer wg.Done()
			run()
		}) {
			wg.Done()
			break // pool saturated by other engines; caller absorbs the rest
		}
	}
	run()
	wg.Wait()
}
