package webgl

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// TestBatchNormDispatchCompilesNothing bounds the allocations of one warmed
// FusedBatchNorm dispatch: its program comes from the program cache, its
// five inputs ride in the queue entry and its output's record is recycled,
// so what is left is the caller's descriptor and its shape. It read 12
// while each dispatch built its program, its closure, a texture list and a
// record, and about 42 while the program compiled samplers, strides and
// index terms.
func TestBatchNormDispatchCompilesNothing(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	shapes := [][]int{{1, 24, 24, 32}, {32}, {32}, {32}, {32}}
	inputs := make([]kernels.Input, len(shapes))
	for i, shape := range shapes {
		id := tensor.NewDataID()
		vals := make([]float32, tensor.ShapeSize(shape))
		for j := range vals {
			vals[j] = 1 + float32(j%7)
		}
		b.Write(id, vals, shape, tensor.Float32)
		inputs[i] = kernels.Input{DataID: id, Shape: shape, DType: tensor.Float32}
	}
	attrs := kernels.Attrs{Epsilon: 1e-3}
	dispatch := func() {
		var out kernels.TensorInfo
		if err := b.kernelsTable["FusedBatchNorm"](inputs, attrs, &out); err != nil {
			t.Fatal(err)
		}
		b.DisposeData(out.DataID)
	}
	dispatch() // fills the recycler
	<-b.device.FenceSync()
	const budget = 2
	if allocs := testing.AllocsPerRun(50, dispatch); allocs > budget {
		t.Fatalf("one FusedBatchNorm dispatch allocates %.0f times, budget %d: is the channel-suffix path compiling samplers?", allocs, budget)
	} else {
		t.Logf("one FusedBatchNorm dispatch: %.0f allocs", allocs)
	}
}

// TestRecyclerKeepsTextureCostOffTheClock is §4.1.2 on the device clock:
// with the recycler off every pass pays TextureAllocCost per texture
// created and half per texture deleted; with it on a steady-state pass
// pays for programs only.
func TestRecyclerKeepsTextureCostOffTheClock(t *testing.T) {
	pass := func(b *Backend) {
		shape := []int{16, 16}
		id := tensor.NewDataID()
		b.Write(id, make([]float32, 256), shape, tensor.Float32)
		in := kernels.Input{DataID: id, Shape: shape, DType: tensor.Float32}
		for i := 0; i < 5; i++ {
			var out kernels.TensorInfo
			if err := b.kernelsTable["Relu"]([]kernels.Input{in}, kernels.Attrs{}, &out); err != nil {
				t.Fatal(err)
			}
			b.DisposeData(in.DataID)
			in = kernels.Input{DataID: out.DataID, Shape: shape, DType: tensor.Float32}
		}
		b.DisposeData(in.DataID)
	}
	measure := func(recycling bool) (clockPS int64, created, deleted int64) {
		cfg := DefaultConfig()
		cfg.Recycling = recycling
		b := New(cfg)
		defer b.Close()
		pass(b)
		before, s0 := b.deviceClock(), b.device.Stats()
		pass(b)
		after, s1 := b.deviceClock(), b.device.Stats()
		return after - before, s1.TexturesCreated - s0.TexturesCreated, s1.TexturesDeleted - s0.TexturesDeleted
	}
	on, createdOn, deletedOn := measure(true)
	off, createdOff, deletedOff := measure(false)
	if createdOn != 0 || deletedOn != 0 {
		t.Fatalf("recycler on: a steady-state pass created %d and deleted %d textures, want 0", createdOn, deletedOn)
	}
	if createdOff != 6 || deletedOff != 6 {
		t.Fatalf("recycler off: a pass created %d and deleted %d textures, want 6 and 6", createdOff, deletedOff)
	}
	const allocPS = 50_000_000 // DefaultConfig: 50 µs
	if want := on + createdOff*allocPS + deletedOff*allocPS/2; off != want {
		t.Fatalf("recycler off models %d ps, want the programs' %d ps + %d creates × 50 µs + %d deletes × 25 µs = %d", off, on, createdOff, deletedOff, want)
	}
}
