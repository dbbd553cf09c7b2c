package tf_test

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/tf"
)

// TestEagerDispatchAllocBudget pins what one warmed eager op costs the
// allocator: op → Engine.RunKernel → kernels.Dispatch → the backend's kernel
// → one tracked tensor, and the dispose. The budgets are the readings with a
// kernel writing its one output into the engine's descriptor (ISSUE 22);
// returning a slice of outputs through a per-kernel wrapper cost two more
// on every backend (14 on cpu and node, 21 and 19 on webgl). Counts, not
// timings: they hold on any runner.
func TestEagerDispatchAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer tf.SetBackend("cpu")
	for _, c := range []struct {
		backend   string
		add, relu float64
	}{{"cpu", 12, 12}, {"node", 12, 12}, {"webgl", 19, 17}} {
		if err := tf.SetBackend(c.backend); err != nil {
			t.Fatal(err)
		}
		a := tf.Tensor1D([]float32{1, -2, 3, -4})
		b := tf.Tensor1D([]float32{4, 3, 2, 1})
		add := func() { tf.Add(a, b).Dispose() }
		relu := func() { tf.Relu(a).Dispose() }
		for i := 0; i < 3; i++ { // warmup: recycler, texture free list
			add()
			relu()
		}
		gotAdd, gotRelu := testing.AllocsPerRun(100, add), testing.AllocsPerRun(100, relu)
		t.Logf("%s: Add %.0f allocs/op (budget %.0f), Relu %.0f (budget %.0f)", c.backend, gotAdd, c.add, gotRelu, c.relu)
		if gotAdd > c.add || gotRelu > c.relu {
			t.Errorf("%s: Add %.0f allocs/op (budget %.0f), Relu %.0f (budget %.0f)", c.backend, gotAdd, c.add, gotRelu, c.relu)
		}
		a.Dispose()
		b.Dispose()
	}
}

// TestEagerDispatchAllocBudgetPerClass extends the budget above to one
// warmed eager dispatch of each kernel class the device tiers run as a
// range body: the convolutions (plain, fused and depthwise), a pool, a
// matmul, a reduction, two shape kernels, both convolution gradients and
// Adam's moments, on node and webgl. Conv2D and MaxPool are dispatched
// without strides, dilations or a filter size, so an attribute default
// allocated per call shows. On webgl each dispatch is followed by a fence
// (seven allocations of its own), so that the device has run the program
// and recycled its texture before the next: unfenced, the reading depends
// on how far the device lags. A budget is the lowest reading yet; a
// change may lower one and may not raise any.
func TestEagerDispatchAllocBudgetPerClass(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer tf.SetBackend("cpu")
	calls := []struct {
		kernel string
		shapes [][]int
		attrs  kernels.Attrs
	}{
		{"Conv2D", [][]int{{1, 6, 6, 2}, {3, 3, 2, 4}}, kernels.Attrs{"pad": "same"}},
		{"FusedConv2D", [][]int{{1, 6, 6, 2}, {3, 3, 2, 4}, {4}}, kernels.Attrs{"pad": "same", "activation": "relu"}},
		{"DepthwiseConv2dNative", [][]int{{1, 6, 6, 2}, {3, 3, 2, 1}}, kernels.Attrs{"pad": "same"}},
		{"MaxPool", [][]int{{1, 6, 6, 2}}, kernels.Attrs{}},
		{"BatchMatMul", [][]int{{2, 3, 4}, {2, 4, 5}}, kernels.Attrs{}},
		{"Sum", [][]int{{6, 8}}, kernels.Attrs{"axes": []int{1}}},
		{"Transpose", [][]int{{2, 3, 4}}, kernels.Attrs{"perm": []int{2, 0, 1}}},
		{"Concat", [][]int{{2, 3}, {2, 5}}, kernels.Attrs{"axis": 1}},
		{"Conv2DBackpropFilter", [][]int{{1, 6, 6, 2}, {1, 6, 6, 4}}, kernels.Attrs{"pad": "same", "filterShape": []int{3, 3, 2, 4}}},
		{"Conv2DBackpropInput", [][]int{{1, 6, 6, 4}, {3, 3, 2, 4}}, kernels.Attrs{"pad": "same", "inputShape": []int{1, 6, 6, 2}}},
		{"AdamMoments", [][]int{{2, 3, 4}, {3, 4}}, kernels.Attrs{"beta1": 0.9, "beta2": 0.999}},
	}
	budgets := map[string]map[string]float64{
		"node": {"Conv2D": 10, "FusedConv2D": 10, "DepthwiseConv2dNative": 10, "MaxPool": 12, "BatchMatMul": 10, "Sum": 10,
			"Transpose": 12, "Concat": 11, "Conv2DBackpropFilter": 10, "Conv2DBackpropInput": 10, "AdamMoments": 10},
		"webgl": {"Conv2D": 22, "FusedConv2D": 22, "DepthwiseConv2dNative": 22, "MaxPool": 24, "BatchMatMul": 23, "Sum": 22,
			"Transpose": 24, "Concat": 23, "Conv2DBackpropFilter": 22, "Conv2DBackpropInput": 24, "AdamMoments": 22},
	}
	for _, backend := range []string{"node", "webgl"} {
		if err := tf.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		e := tf.EngineOf()
		for _, c := range calls {
			ins := make([]*tf.Tensor, len(c.shapes))
			for i, shape := range c.shapes {
				vals := make([]float32, tensor.ShapeSize(shape))
				for j := range vals {
					vals[j] = float32(j%7) - 3
				}
				ins[i] = tf.TensorOf(vals, shape...)
			}
			run := func() {
				e.RunKernel(c.kernel, ins, c.attrs).Dispose()
				if d, ok := e.Backend().(interface{ Device() *glsim.Device }); ok {
					<-d.Device().FenceSync()
				}
			}
			for i := 0; i < 3; i++ { // warmup
				run()
			}
			got, budget := testing.AllocsPerRun(100, run), budgets[backend][c.kernel]
			t.Logf("%s %s: %.0f allocs/op (budget %.0f)", backend, c.kernel, got, budget)
			if got > budget {
				t.Errorf("%s %s: %.0f allocs/op, budget %.0f", backend, c.kernel, got, budget)
			}
			for _, in := range ins {
				in.Dispose()
			}
		}
	}
}
