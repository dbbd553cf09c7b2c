package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestSpawnReplicaIsolation: a replica shares the backend registry but has
// its own backend instance, data registry and memory accounting, so work
// on the replica never shows up in the parent's books.
func TestSpawnReplicaIsolation(t *testing.T) {
	parent := core.Global()
	before := parent.Memory()

	r := parent.SpawnReplica()
	if got, want := r.RegisteredBackends(), parent.RegisteredBackends(); len(got) != len(want) {
		t.Fatalf("replica backends = %v, parent = %v", got, want)
	}

	var rt *tensor.Tensor
	r.RunExclusive(func() {
		rt = r.MakeTensor([]float32{1, 2, 3, 4}, []int{2, 2}, tensor.Float32)
	})
	if rt.Owner() == nil {
		t.Fatal("replica-created tensor must carry its owning engine")
	}
	if parent.Memory().NumBytes != before.NumBytes {
		t.Fatalf("replica allocation leaked into parent accounting: %d -> %d bytes",
			before.NumBytes, parent.Memory().NumBytes)
	}
	if r.Memory().NumBytes == 0 {
		t.Fatal("replica accounting missed its own allocation")
	}

	// Reads and disposal route to the replica from any goroutine.
	done := make(chan []float32, 1)
	go func() { done <- rt.DataSync() }()
	vals := <-done
	if len(vals) != 4 || vals[3] != 4 {
		t.Fatalf("replica read through owner routing = %v", vals)
	}
	rt.Dispose()
	if r.Memory().NumBytes != 0 {
		t.Fatalf("replica bytes after dispose = %d", r.Memory().NumBytes)
	}
}

// TestReplicasRunConcurrently: two engines' exclusive sections overlap in
// time — the property the serving replica pool is built on. Each section
// sleeps 100ms; serialized execution would take ≥200ms.
func TestReplicasRunConcurrently(t *testing.T) {
	a := core.Global().SpawnReplica()
	b := core.Global().SpawnReplica()
	const hold = 100 * time.Millisecond

	start := time.Now()
	var wg sync.WaitGroup
	for _, e := range []*core.Engine{a, b} {
		wg.Add(1)
		go func(e *core.Engine) {
			defer wg.Done()
			e.RunExclusive(func() {
				x := e.MakeTensor([]float32{1}, []int{1}, tensor.Float32)
				time.Sleep(hold)
				x.Dispose()
			})
		}(e)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed >= 2*hold {
		t.Fatalf("exclusive sections on different engines serialized: %v", elapsed)
	}
}

// TestReplicaTidyScopesIndependent: a tidy scope open on one engine must
// not adopt (and later dispose) tensors created on another.
func TestReplicaTidyScopesIndependent(t *testing.T) {
	r := core.Global().SpawnReplica()
	var stray *tensor.Tensor
	core.Global().Tidy("outer", func() []*tensor.Tensor {
		r.RunExclusive(func() {
			stray = r.MakeTensor([]float32{7}, []int{1}, tensor.Float32)
		})
		return nil
	})
	if stray.Disposed() {
		t.Fatal("global tidy scope disposed a replica-owned tensor")
	}
	if got := stray.DataSync(); got[0] != 7 {
		t.Fatalf("replica tensor corrupted: %v", got)
	}
	stray.Dispose()
}
