package native

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
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

// workerPool is a fixed set of goroutines receiving the jobs of
// parallelFor calls.
type workerPool struct {
	tasks chan *job
	idle  atomic.Int64
}

var sharedPool = newWorkerPool(runtime.GOMAXPROCS(0))

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{tasks: make(chan *job)}
	p.idle.Store(int64(n))
	for i := 0; i < n; i++ {
		go p.work()
	}
	return p
}

func (p *workerPool) work() {
	for j := range p.tasks {
		j.run()
		j.helpers.Done()
		p.idle.Add(1)
	}
}

// tryDispatch has an idle worker help with j, reserving it first; it
// reports false (and hands nothing over) when every worker is busy.
func (p *workerPool) tryDispatch(j *job) bool {
	for {
		n := p.idle.Load()
		if n <= 0 {
			return false
		}
		if p.idle.CompareAndSwap(n, n-1) {
			p.tasks <- j
			return true
		}
	}
}

// A job is one parallelFor call split into chunks, which the caller and
// the workers it reserved claim by index from next — work-stealing, so an
// uneven chunk mix still balances. It is the call's one allocation, and
// what the workers it reserved receive.
type job struct {
	fill            kernels.Fill
	in              [][]float32
	dst             []float32
	unit, n, chunks int
	next            atomic.Int64
	helpers         sync.WaitGroup
}

// run fills chunks until none is left to claim.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		lo, hi := chunkBounds(j.n, j.chunks, i)
		j.fill(j.in, lo*j.unit, j.dst[lo*j.unit:min(hi*j.unit, len(j.dst))])
	}
}

// chunkFlops is the arithmetic cost below which a chunk is not worth
// handing to another goroutine: fork/join and cache-transfer overhead
// would exceed the compute. Grain sizes everywhere derive from this one
// constant and the kernel's declared work.
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

// parallelFor fills dst, the output of a call whose input buffers are in,
// with fill, sharding it across the shared pool in whole units of unit
// values (0 is 1; the last unit may be short), which no chunk splits. work
// is the call's declared cost — the operand values it fetches
// (kernels.Work), about one multiply-add each in a product — and the chunk
// grain is derived from its share per unit so that each chunk carries at
// least chunkFlops of it. Nothing here reads a clock, and nothing but the
// kernel's declared work sizes the grain. A call of one chunk — every call
// on one worker — runs fill on the caller and allocates nothing; a call
// of more allocates its job.
//
// Results are bit-identical for every workers setting: chunk boundaries
// are a pure function of (units, chunks), and every body computes a value
// the same wherever its range is cut. Only wall time varies.
func (b *Backend) parallelFor(fill kernels.Fill, in [][]float32, dst []float32, unit int, work int64) {
	unit = max(unit, 1)
	n := (len(dst) + unit - 1) / unit
	if n == 0 {
		return
	}
	grain := max(chunkFlops/max(int(work/int64(n)), 1), 1)
	chunks := min((n+grain-1)/grain, maxChunks)
	workers := b.Workers()
	if chunks <= 1 || workers <= 1 {
		fill(in, 0, dst)
		return
	}

	// The caller participates, and up to workers-1 idle pool goroutines
	// help.
	j := &job{fill: fill, in: in, dst: dst, unit: unit, n: n, chunks: chunks}
	for h := 0; h < min(workers-1, chunks-1); h++ {
		j.helpers.Add(1)
		if !sharedPool.tryDispatch(j) {
			j.helpers.Done()
			break // pool saturated by other engines; caller absorbs the rest
		}
	}
	j.run()
	j.helpers.Wait()
}
