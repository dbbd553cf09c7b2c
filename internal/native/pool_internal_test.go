package native

import (
	"sync"
	"testing"

	"repro/internal/exec"
)

// coverage records which output values a parallelFor's fills visited, and
// how often.
type coverage struct {
	mu     sync.Mutex
	visits []int
	chunks int
}

func (c *coverage) fill(_ [][]float32, lo int, dst []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := lo; i < lo+len(dst); i++ {
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
// parallelFor's chunks, the call's declared work per unit, and that
// whatever grain results every value is covered exactly once, whole units
// together, the last one short.
func TestParallelForCostSetsTheGrain(t *testing.T) {
	b := New()
	// A worker budget > 1 so parallelFor actually chunks; on a single-core
	// host the default budget is 1 and everything runs as one chunk.
	b.ApplyExecConfig(exec.Make(exec.WithWorkers(4)))
	const n = 10000
	run := func(unit, workPerUnit int) int {
		cov := &coverage{visits: make([]int, n)}
		units := (n + unit - 1) / unit
		b.parallelFor(cov.fill, nil, make([]float32, n), unit, int64(workPerUnit)*int64(units))
		cov.checkExactlyOnce(t)
		return cov.chunks
	}
	if got := run(1, 1); got != 1 {
		t.Errorf("1 op/value: %d chunks, want 1 (below chunkFlops)", got)
	}
	// 1024 ops/value: grain chunkFlops/1024 = 32, 313 chunks capped at 256.
	if got := run(1, 1024); got != maxChunks {
		t.Errorf("1024 ops/value: %d chunks, want %d", got, maxChunks)
	}
	// Units of 7 values, 8192 ops each: grain 4, 1429 units in 256 chunks.
	if got := run(7, 8192); got != maxChunks {
		t.Errorf("8192 ops/unit of 7: %d chunks, want %d", got, maxChunks)
	}
}
