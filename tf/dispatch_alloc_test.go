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
// shape and the kernel's one; 2 and 2 on webgl, the handle and its shape:
// a warmed program is looked up, not built, its inputs are bound to the
// device command and its output's record is recycled). Webgl read 8 and 8
// while each dispatch resolved its call and built a program, a closure, a
// texture list and a record, and Add 10 while its program broadcast the
// shapes and listed the operands' periods into slices of their own. They
// were 12, 12, 19 and 17 with a kernel writing
// its one output into the engine's descriptor; returning a slice of
// outputs through a per-kernel wrapper cost two more on every backend (14
// on cpu and node, 21 and 19 on webgl).
// Counts, not timings: they hold on any runner.
func TestEagerDispatchAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer tf.SetBackend("cpu")
	for _, c := range []struct {
		backend   string
		add, relu float64
	}{{"cpu", 3, 3}, {"node", 3, 3}, {"webgl", 2, 2}} {
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
// matmul, a reduction, Softmax, two shape kernels, both convolution gradients,
// Adam's moments and element-wise ops (equal shapes, a suffix row, a
// non-suffix broadcast, a vec row, an attribute-taking row and a
// predicate), on node and webgl. Conv2D and MaxPool are dispatched
// without strides or dilations, so a zero field's meaning allocated per
// call shows. On webgl each dispatch is followed by a fence (two
// allocations of its own: its channel and its command), so that the device
// has run the program and recycled its texture before the next: unfenced,
// the reading depends on how far the device lags. The device's cores are
// started once, so the webgl readings are the same on one CPU and on
// several. A budget is the lowest reading yet; a change may lower one and
// may not raise any. Webgl reads 4 (the handle, its shape and the fence;
// 5 for Conv2DBackpropInput, whose program stages its transposed filter
// per dispatch); it read 10–12 on one CPU while each dispatch resolved its
// call and built its program, and 15–17 on two, where each dispatch also
// started a goroutine per device core. Node read 10 a dispatch (12
// for MaxPool and Transpose, 11 for Concat) and webgl 22–24 before the
// engine's share of a dispatch went 7 → 2: the output handle and its shape.
// MaxPool read 4 on node and 16 on webgl while its filter shape escaped
// through ComputeConv2DInfo's error messages. The element-wise ops read
// 17 on webgl (Relu6 15, Step 16) and Sub 4 on node while each tier
// wrapped them in kernels of its own, which broadcast the shapes into a
// fresh slice. Softmax read 37 on webgl as three programs through two
// intermediate textures.
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
		{"Conv2D", [][]int{{1, 6, 6, 2}, {3, 3, 2, 4}}, kernels.Attrs{Pad: "same"}},
		{"FusedConv2D", [][]int{{1, 6, 6, 2}, {3, 3, 2, 4}, {4}}, kernels.Attrs{Pad: "same", Activation: "relu"}},
		{"DepthwiseConv2dNative", [][]int{{1, 6, 6, 2}, {3, 3, 2, 1}}, kernels.Attrs{Pad: "same"}},
		{"MaxPool", [][]int{{1, 6, 6, 2}}, kernels.Attrs{FilterSize: []int{2, 2}}},
		{"BatchMatMul", [][]int{{2, 3, 4}, {2, 4, 5}}, kernels.Attrs{}},
		{"Sum", [][]int{{6, 8}}, kernels.Attrs{Axes: []int{1}}},
		{"Softmax", [][]int{{6, 8}}, kernels.Attrs{}},
		{"Transpose", [][]int{{2, 3, 4}}, kernels.Attrs{Perm: []int{2, 0, 1}}},
		{"Concat", [][]int{{2, 3}, {2, 5}}, kernels.Attrs{Axis: 1}},
		{"Conv2DBackpropFilter", [][]int{{1, 6, 6, 2}, {1, 6, 6, 4}}, kernels.Attrs{Pad: "same", Shape: []int{3, 3, 2, 4}}},
		{"Conv2DBackpropInput", [][]int{{1, 6, 6, 4}, {3, 3, 2, 4}}, kernels.Attrs{Pad: "same", Shape: []int{1, 6, 6, 2}}},
		{"AdamMoments", [][]int{{2, 3, 4}, {3, 4}}, kernels.Attrs{Beta1: 0.9, Beta2: 0.999}},
		{"Mul", [][]int{{6, 8}, {6, 8}}, kernels.Attrs{}},
		{"Add", [][]int{{6, 8}, {8}}, kernels.Attrs{}},
		{"Sub", [][]int{{6, 8}, {6, 1}}, kernels.Attrs{}},
		{"Relu6", [][]int{{6, 8}}, kernels.Attrs{}},
		{"Step", [][]int{{6, 8}}, kernels.Attrs{Alpha: 0.5}},
		{"GreaterEqual", [][]int{{6, 8}, {6, 8}}, kernels.Attrs{}},
	}
	budgets := map[string]map[string]float64{
		"node": {"Conv2D": 3, "FusedConv2D": 3, "DepthwiseConv2dNative": 3, "MaxPool": 3, "BatchMatMul": 3, "Sum": 3, "Softmax": 3,
			"Transpose": 3, "Concat": 4, "Conv2DBackpropFilter": 3, "Conv2DBackpropInput": 3, "AdamMoments": 3,
			"Mul": 3, "Add": 3, "Sub": 3, "Relu6": 3, "Step": 4, "GreaterEqual": 3},
		"webgl": {"Conv2D": 4, "FusedConv2D": 4, "DepthwiseConv2dNative": 4, "MaxPool": 4, "BatchMatMul": 4, "Sum": 4, "Softmax": 4,
			"Transpose": 4, "Concat": 4, "Conv2DBackpropFilter": 4, "Conv2DBackpropInput": 5, "AdamMoments": 4,
			"Mul": 4, "Add": 4, "Sub": 4, "Relu6": 4, "Step": 4, "GreaterEqual": 4},
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
			call{"Add", [][]int{{i + 1, 3}, {i + 1, 3}}, kernels.Attrs{}},
			call{"Conv2D", [][]int{{1, 4 + i%4, 3 + i%3, 2}, {3, 3, 2, 1 + i%4}}, kernels.Attrs{Pad: "same"}},
			call{"Sum", [][]int{{i + 2, 5}}, kernels.Attrs{Axes: []int{i % 2}}},
			call{"Transpose", [][]int{{2, i + 1, 3}}, kernels.Attrs{Perm: []int{2, 0, 1}}})
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
