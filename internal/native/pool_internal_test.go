package native

import (
	"sync"
	"testing"

	"repro/internal/exec"
)

// coverage records which indices a parallelFor visited, and how often.
type coverage struct {
	mu     sync.Mutex
	visits []int
	chunks int
}

func (c *coverage) fn(lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := lo; i < hi; i++ {
		c.visits[i]++
	}
	c.chunks++
}

func (c *coverage) checkExactlyOnce(t *testing.T) {
	t.Helper()
	for i, n := range c.visits {
		if n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
}

// TestChunkBoundsPartition checks the chunk layout is an exact partition
// of [0, n) for awkward n/c combinations — the pure-function property the
// bit-stability argument rests on.
func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 7, 100, 1023} {
		for _, c := range []int{1, 2, 3, 7, 100} {
			if c > n {
				continue
			}
			next := 0
			for i := 0; i < c; i++ {
				lo, hi := chunkBounds(n, c, i)
				if lo != next || hi < lo {
					t.Fatalf("n=%d c=%d chunk %d: [%d,%d) after %d", n, c, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d c=%d: chunks cover [0,%d)", n, c, next)
			}
		}
	}
}

// TestParallelForCostSetsTheGrain checks the one input that sizes
// parallelFor's chunks, the kernel's flops per item, and that whatever
// grain results the index space is covered exactly once.
func TestParallelForCostSetsTheGrain(t *testing.T) {
	b := New()
	// A worker budget > 1 so parallelFor actually chunks; on a single-core
	// host the default budget is 1 and everything runs as one chunk.
	b.ApplyExecConfig(exec.Make(exec.WithWorkers(4)))
	const n = 10000
	run := func(costPerItem int) int {
		cov := &coverage{visits: make([]int, n)}
		b.parallelFor(n, costPerItem, cov.fn)
		cov.checkExactlyOnce(t)
		return cov.chunks
	}
	if got := run(1); got != 1 {
		t.Errorf("1 flop/item: %d chunks, want 1 (below chunkFlops)", got)
	}
	// 1024 flops/item: grain chunkFlops/1024 = 32, 313 chunks capped at 256.
	if got := run(1024); got != maxChunks {
		t.Errorf("1024 flops/item: %d chunks, want %d", got, maxChunks)
	}
}
