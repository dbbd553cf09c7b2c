package webgl

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// TestSuffixPeriods is the decision table of the channel-suffix path: an
// operand takes it when its shape, leading 1s dropped, is the output's
// trailing dimensions; everything else — the squeeze ablation's
// [1,64,1,2048]×[1,64,1,1] included — keeps the compiled samplers.
func TestSuffixPeriods(t *testing.T) {
	for _, c := range []struct {
		name    string
		out     []int
		ins     [][]int
		periods []int // nil: sampler path
	}{
		{"[C]", []int{2, 3, 3, 9}, [][]int{{9}}, []int{9}},
		{"[1,C]", []int{4, 3}, [][]int{{1, 3}}, []int{3}},
		{"[1,1,1,C]", []int{2, 2, 3, 5}, [][]int{{1, 1, 1, 5}}, []int{5}},
		{"scalar []", []int{3, 7}, [][]int{{}}, []int{1}},
		{"scalar [1]", []int{3, 7}, [][]int{{1}}, []int{1}},
		{"[W,C]", []int{2, 3, 5}, [][]int{{3, 5}}, []int{15}},
		{"the output's own shape", []int{2, 3, 5}, [][]int{{2, 3, 5}}, []int{30}},
		{"primary and [C], either order", []int{3, 5, 17}, [][]int{{17}, {3, 5, 17}}, []int{17, 255}},
		{"batch norm", []int{1, 48, 48, 8}, [][]int{{8}, {8}, {8}, {8}}, []int{8, 8, 8, 8}},
		{"mixed periods", []int{5, 3}, [][]int{{3}, {}, {1, 3}, {1}}, []int{3, 1, 3, 1}},
		{"non-suffix [N,1]", []int{2, 5, 3}, [][]int{{5, 1}}, nil},
		{"one non-suffix operand spoils the program", []int{2, 5, 3}, [][]int{{3}, {5, 1}}, nil},
		{"squeeze ablation", []int{1, 64, 1, 2048}, [][]int{{1, 64, 1, 2048}, {1, 64, 1, 1}}, nil},
		{"[C] against the wrong C", []int{2, 4}, [][]int{{2}}, nil},
		{"longer than the output", []int{3}, [][]int{{2, 3}}, nil},
		{"zero-size output", []int{0, 4}, [][]int{{4}}, nil},
	} {
		got, ok := suffixPeriods(c.out, c.ins...)
		if ok != (c.periods != nil) || !tensor.ShapesEqual(got, c.periods) {
			t.Errorf("%s: suffixPeriods(%v, %v) = %v, %v; want %v", c.name, c.out, c.ins, got, ok, c.periods)
		}
	}
}

// TestBatchNormDispatchCompilesNothing bounds the allocations of one warmed
// FusedBatchNorm dispatch (output container, program, queue entry — and no
// samplers, strides or index terms; the compiled path allocated about 42).
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
	attrs := kernels.Attrs{"varianceEpsilon": 1e-3}
	dispatch := func() {
		var out kernels.TensorInfo
		if err := b.kernelsTable["FusedBatchNorm"](inputs, attrs, &out); err != nil {
			t.Fatal(err)
		}
		b.DisposeData(out.DataID)
	}
	dispatch() // fills the recycler
	<-b.device.FenceSync()
	const budget = 12
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
