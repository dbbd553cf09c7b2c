package tf_test

import (
	"math"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/tf"
)

// TestEagerDispatchAllocBudget pins what one warmed eager op costs the
// allocator: op → Engine.RunKernel → kernels.Dispatch → the backend's kernel
// → one tracked tensor, and the dispose. The budgets are the readings with
// one pooled dispatch frame per call, a tape node built only when a tape
// keeps it and no per-tensor strides (3 on cpu and node: the handle, its
// shape and the kernel's one; 10 and 8 on webgl). They were 12, 12, 19 and
// 17 with a kernel writing its one output into the engine's descriptor;
// returning a slice of outputs through a per-kernel wrapper cost two more
// on every backend (14 on cpu and node, 21 and 19 on webgl).
// Counts, not timings: they hold on any runner.
func TestEagerDispatchAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer tf.SetBackend("cpu")
	for _, c := range []struct {
		backend   string
		add, relu float64
	}{{"cpu", 3, 3}, {"node", 3, 3}, {"webgl", 10, 8}} {
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
// change may lower one and may not raise any. Node read 10 a dispatch (12
// for MaxPool and Transpose, 11 for Concat) and webgl 22–24 before the
// engine's share of a dispatch went 7 → 2: the output handle and its shape.
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
		"node": {"Conv2D": 3, "FusedConv2D": 3, "DepthwiseConv2dNative": 3, "MaxPool": 4, "BatchMatMul": 3, "Sum": 3,
			"Transpose": 3, "Concat": 4, "Conv2DBackpropFilter": 3, "Conv2DBackpropInput": 3, "AdamMoments": 3},
		"webgl": {"Conv2D": 15, "FusedConv2D": 15, "DepthwiseConv2dNative": 15, "MaxPool": 16, "BatchMatMul": 16, "Sum": 15,
			"Transpose": 15, "Concat": 16, "Conv2DBackpropFilter": 15, "Conv2DBackpropInput": 17, "AdamMoments": 15},
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

// TestEagerKernelsKeepNoDispatchFrame: a kernel may not keep its inputs or
// its output descriptor after it returns (kernels.OverrideKernel). Webgl
// runs a program on the device after the kernel has returned, so one that
// read its operands through the dispatch's own storage would read the next
// dispatch's. Sixty-four eager kernels of four classes, each on shapes of
// its own, are dispatched with no fence between them, then every output is
// read and held bit for bit to the same calls on cpu.
func TestEagerKernelsKeepNoDispatchFrame(t *testing.T) {
	defer tf.SetBackend("cpu")
	type call struct {
		kernel string
		shapes [][]int
		attrs  kernels.Attrs
	}
	var calls []call
	for i := 0; i < 16; i++ {
		calls = append(calls,
			call{"Add", [][]int{{i + 1, 3}, {i + 1, 3}}, nil},
			call{"Conv2D", [][]int{{1, 4 + i%4, 3 + i%3, 2}, {3, 3, 2, 1 + i%4}}, kernels.Attrs{"pad": "same"}},
			call{"Sum", [][]int{{i + 2, 5}}, kernels.Attrs{"axes": []int{i % 2}}},
			call{"Transpose", [][]int{{2, i + 1, 3}}, kernels.Attrs{"perm": []int{2, 0, 1}}})
	}
	run := func(backend string) [][]float32 {
		if err := tf.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		e := tf.EngineOf()
		var ins [][]*tf.Tensor
		for i, c := range calls {
			ts := make([]*tf.Tensor, len(c.shapes))
			for k, shape := range c.shapes {
				vals := make([]float32, tensor.ShapeSize(shape))
				for j := range vals {
					vals[j] = float32((j*7+i*3+k)%11-5) / 4
				}
				ts[k] = tf.TensorOf(vals, shape...)
			}
			ins = append(ins, ts)
		}
		outs := make([]*tf.Tensor, len(calls))
		for i, c := range calls {
			outs[i] = e.RunKernel(c.kernel, ins[i], c.attrs)
		}
		got := make([][]float32, len(calls))
		for i, out := range outs {
			got[i] = append([]float32(nil), out.DataSync()...)
			out.Dispose()
			for _, in := range ins[i] {
				in.Dispose()
			}
		}
		return got
	}
	want, got := run("cpu"), run("webgl")
	for i, c := range calls {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("call %d (%s): %d values on webgl, %d on cpu", i, c.kernel, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("call %d (%s) value %d: %g on webgl, %g on cpu", i, c.kernel, j, got[i][j], want[i][j])
			}
		}
	}
}
