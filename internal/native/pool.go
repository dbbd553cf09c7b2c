package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/telemetry"
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

// chunkNS is the measured-cost sibling of chunkFlops: the wall-time cost
// below which a chunk is not worth handing to another goroutine. The two
// constants agree at the ~1 flop/ns a scalar core sustains, so switching
// the cost model between static and measured moves the grain only as far
// as the measurement diverges from the flop estimate.
const chunkNS = 32 * 1024

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
// work. A costPerItem <= 0 falls back to the plan step's per-element
// cost hint (set by the graph executor), else to 1.
//
// When the current plan step carries a measured-cost account
// (exec.StepHint.Cost) and profiling is on, every chunk's wall time is
// fed back into the account; summed chunk durations approximate the
// step's sequential work time, so the measurement is independent of how
// many workers ran it and never oscillates with the grain it informs.
// Under exec.CostModelMeasured (hint.Measured) the grain itself derives
// from the account's observed ns/item instead of the flop estimate.
//
// Results are bit-identical for every workers setting and either cost
// model: chunk boundaries are a pure function of (n, chunks), kernels
// never split one output element's accumulation across chunks, and the
// cost model only moves the boundaries. Only wall time varies.
func (b *Backend) parallelFor(n, costPerItem int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	hint := b.stepHint.Load()
	// acct, when set, receives each chunk's wall time. The timing is inlined
	// at the two execution sites below rather than wrapped in a closure: the
	// wrapper was a per-call heap allocation on the single-worker path, which
	// must stay allocation-free in steady state.
	var acct exec.CostObserver
	if hint != nil && hint.Cost != nil && telemetry.ProfilingOn() {
		acct = hint.Cost
	}
	grain := 0
	if hint != nil && hint.Measured && hint.Cost != nil {
		if nsPerItem := hint.Cost.NSPerItem(); nsPerItem > 0 {
			grain = int(chunkNS / nsPerItem)
		}
	}
	if grain <= 0 {
		if costPerItem <= 0 {
			costPerItem = b.costPerElem(1)
		}
		grain = chunkFlops / costPerItem
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks > maxChunks {
		chunks = maxChunks
	}
	workers := b.Workers()
	if chunks <= 1 || workers <= 1 {
		if acct != nil {
			t0 := time.Now()
			fn(0, n)
			acct.ObserveCost(time.Since(t0).Nanoseconds(), n)
			return
		}
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
			lo, hi := chunkBounds(n, chunks, i)
			if acct != nil {
				t0 := time.Now()
				fn(lo, hi)
				acct.ObserveCost(time.Since(t0).Nanoseconds(), hi-lo)
				continue
			}
			fn(lo, hi)
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
