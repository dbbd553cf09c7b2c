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
// keeps it, no per-tensor strides and the handle and its shape one object
// (2 on cpu: the handle and the reference kernel's result; 1 on node, the
// handle: a warmed call's resolution is looked up in the backend's memo,
// not built; 1 and 1 on webgl, the handle: a warmed program is looked up,
// not built, its inputs are bound to the device command and its output's
// record is recycled). They read 3, 2 and 2 / 2 while the handle's shape
// was an allocation of its own. Node read 3 and 3 while every dispatch
// resolved its call and built its body's closure. Webgl read 8 and 8
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
	}{{"cpu", 2, 2}, {"node", 1, 1}, {"webgl", 1, 1}} {
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
// Adam's moments, element-wise ops (equal shapes, a suffix row, a
// non-suffix broadcast, a vec row, an attribute-taking row and a
// predicate), the six kernels that ran on the reference kernel through
// host memory until they joined the table (All, Any, Cast, CumSum, Range,
// Reverse), a view, a reduction and a broadcast of rank 8, Select and a
// batch norm on operands that broadcast, GatherV2 and Reshape, a free op,
// on node, webgl and webgpu. Conv2D and MaxPool are dispatched
// without strides or dilations, so a zero field's meaning allocated per
// call shows. On webgl each dispatch is followed by a fence (two
// allocations of its own: its channel and its command), so that the device
// has run the program and recycled its texture before the next: unfenced,
// the reading depends on how far the device lags. The device's cores are
// started once, so the webgl readings are the same on one CPU and on
// several. A budget is the lowest reading yet; a change may lower one and
// may not raise any. Node reads 1 (the handle, one object with its shape:
// a warmed call is resolved once, in the backend's memo); Reshape, a free
// op that dispatches no kernel, reads the same, its wildcard resolved in
// the handle's own shape. Webgl reads 3 (the handle and the fence's two).
// Node read 2 and webgl 4 while the handle's shape was an allocation of its
// own (Reshape 3 and 5: a copy of its inferred shape, then the handle's); node read
// 3 (4 for Concat and Step) while every dispatch resolved its call and
// built its body's closure. Conv2DBackpropInput read 5 on webgl while its
// program staged its transposed filter into a buffer made per dispatch,
// not the device's own, and every
// kernel read 10–12 on one CPU while each dispatch resolved its
// call and built its program, and 15–17 on two, where each dispatch also
// started a goroutine per device core. Node read 10 a dispatch (12
// for MaxPool and Transpose, 11 for Concat) and webgl 22–24 before the
// engine's share of a dispatch went 7 → 2: the output handle and its shape.
// MaxPool read 4 on node and 16 on webgl while its filter shape escaped
// through ComputeConv2DInfo's error messages. The element-wise ops read
// 17 on webgl (Relu6 15, Step 16) and Sub 4 on node while each tier
// wrapped them in kernels of its own, which broadcast the shapes into a
// fresh slice. Softmax read 37 on webgl as three programs through two
// intermediate textures. Select and that batch norm read 4 on node and 8
// on webgl while each range they filled made its operands' indices in
// slices of its own, and GatherV2 3 and 7 while it was no entry of the
// table: node resolved it and built its body's closure on every dispatch,
// webgl its program. Webgpu reads what webgl does; its tiled BatchMatMul
// pipeline read 7 while each dispatch resolved its call and built the
// pipeline, a closure over the operand textures and a store func, before
// the pipeline was kept in the memo and its operands bound per dispatch.
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
		{"Any", [][]int{{6, 8}}, kernels.Attrs{Axes: []int{1}}},
		{"All", [][]int{{6, 8}}, kernels.Attrs{Axes: []int{0}}},
		{"Reverse", [][]int{{2, 3, 4}}, kernels.Attrs{Axes: []int{1}}},
		{"Cast", [][]int{{6, 8}}, kernels.Attrs{DType: tensor.Int32}},
		{"Range", nil, kernels.Attrs{Start: 0, Stop: 48, Step: 1}},
		{"CumSum", [][]int{{6, 8}}, kernels.Attrs{Axis: 1}},
		// Rank 8, no dims merging: a view, a reduction and a broadcast of
		// any rank keep their geometry in the memo.
		{"Transpose", [][]int{{2, 2, 2, 2, 2, 2, 2, 2}}, kernels.Attrs{Perm: []int{7, 6, 5, 4, 3, 2, 1, 0}}},
		{"Sum", [][]int{{2, 2, 2, 2, 2, 2, 2, 2}}, kernels.Attrs{Axes: []int{0, 2, 4, 6}}},
		{"Add", [][]int{{2, 1, 2, 1, 2, 1, 2, 1}, {1, 2, 1, 2, 1, 2, 1, 2}}, kernels.Attrs{}},
		// Operands laid over their output (Operands): Select's three and a
		// batch norm's five, its parameters not x's channel vectors.
		{"Select", [][]int{{6, 1}, {6, 8}, {8}}, kernels.Attrs{}},
		{"FusedBatchNorm", [][]int{{2, 3, 8}, {3, 1}, {3, 1}, {3, 1}, {3, 1}}, kernels.Attrs{Epsilon: 1e-3}},
		{"GatherV2", [][]int{{6, 8}, {4}}, kernels.Attrs{}},
		{"Reshape", [][]int{{6, 8}}, kernels.Attrs{Shape: []int{-1, 4, 2}}},
	}
	// Every class has its backend's budget. Webgpu is webgl's data plane
	// and kernels plus its own BatchMatMul pipeline, which costs what a
	// webgl program does.
	budgets := map[string]float64{"node": 1, "webgl": 3, "webgpu": 3}
	for _, backend := range []string{"node", "webgl", "webgpu"} {
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
					if c.kernel == "GatherV2" && i == 1 { // indices in range
						vals[j] = float32(j % c.shapes[0][0])
					}
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
			got, budget := testing.AllocsPerRun(100, run), budgets[backend]
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

// TestWebGLPredictAllocBudget pins the Table 1 WebGL row end to end: one
// warmed Layers MobileNet v1 α=0.25 @96 Predict on webgl, its upload, its
// eager ops and tidy scopes, the readback and both disposes. It reads 95:
// one handle per eager op (every Conv → BatchNorm → ReLU6 block is three
// programs) and a few for the upload and the readback. It read 199 while
// every handle's shape was an allocation of its own and every tidy grew
// its tracking slices and map afresh.
func TestWebGLPredictAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer tf.SetBackend("cpu")
	if err := tf.SetBackend("webgl"); err != nil {
		t.Fatal(err)
	}
	m, err := tf.MobileNetV1(tf.MobileNetConfig{Alpha: 0.25, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	img := make([]float32, 96*96*3)
	for i := range img {
		img[i] = float32(i%255) / 255
	}
	predict := func() {
		x := tf.TensorOf(img, 1, 96, 96, 3)
		out := m.Predict(x)
		out.DataSync()
		out.Dispose()
		x.Dispose()
	}
	for i := 0; i < 3; i++ { // warmup: programs, texture free list
		predict()
	}
	const budget = 95
	got := testing.AllocsPerRun(20, predict)
	t.Logf("warmed webgl MobileNet predict: %.0f allocs (budget %d)", got, budget)
	if got > budget {
		t.Errorf("warmed webgl MobileNet predict: %.0f allocs, budget %d", got, budget)
	}
}

// TestEagerKernelsKeepNoDispatchFrame: a kernel may not keep its inputs or
// its output descriptor after it returns (kernels.Kernel). Webgl
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
