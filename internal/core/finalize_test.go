package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// TestAutoFinalizeReclaimsUndisposedTensors reproduces the Node.js memory
// model of Section 4.2: with finalizers enabled, tensors the user never
// disposes are reclaimed by garbage collection. A handle of rank 1 to 8 is
// one object with its shape (tensor.New), so every such rank is reclaimed,
// and a scalar's, whose empty shape is no object at all.
func TestAutoFinalizeReclaimsUndisposedTensors(t *testing.T) {
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	e.SetAutoFinalize(true)
	defer e.SetAutoFinalize(false)

	for _, shape := range [][]int{{}, {100}, {2, 3, 4, 5}, {2, 1, 2, 1, 2, 1, 2, 1}} {
		before := e.NumTensors()
		func() {
			for i := 0; i < 50; i++ {
				// Deliberately leaked: no Dispose, no tidy.
				_ = ops.Fill(shape, float32(i))
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for e.NumTensors() > before && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		if got := e.NumTensors(); got > before {
			t.Fatalf("rank %d: finalizers left %d of 50 tensors live", len(shape), got-before)
		}
	}
}

// TestTidyKeepsNoDisposedHandle: a tensor a finished tidy disposed is
// garbage. The engine recycles the tidy's scope for the next one, and a
// recycled scope must hold no pointer to what it tracked.
func TestTidyKeepsNoDisposedHandle(t *testing.T) {
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	const rounds = 4
	for i := 0; i < rounds; i++ {
		e.Tidy("release", func() []*tensor.Tensor {
			x := ops.Fill([]int{8}, float32(i))
			y := ops.Add(x, x)
			for _, h := range []*tensor.Tensor{x, y} {
				runtime.SetFinalizer(h, func(*tensor.Tensor) { collected.Add(1) })
			}
			return nil
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < 2*rounds && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < 2*rounds {
		t.Fatalf("%d of %d handles disposed by a finished tidy were collected", got, 2*rounds)
	}
}

// TestAutoFinalizeComposesWithExplicitDispose: disposing explicitly while
// finalizers are armed must not double-free.
func TestAutoFinalizeComposesWithExplicitDispose(t *testing.T) {
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	e.SetAutoFinalize(true)
	defer e.SetAutoFinalize(false)

	a := ops.Scalar(1)
	b := ops.Reshape(a, 1) // shares the container
	a.Dispose()
	if got := b.DataSync(); got[0] != 1 {
		t.Fatal("container freed early")
	}
	b.Dispose()
	runtime.GC()
	runtime.GC()
	// Create and use another tensor to shake out any double-free damage.
	var c *tensor.Tensor
	e.Tidy("post", func() []*tensor.Tensor {
		c = ops.AddScalar(ops.Scalar(2), 3)
		if c.DataSync()[0] != 5 {
			t.Fatal("engine corrupted after finalizer + dispose mix")
		}
		return nil
	})
}
