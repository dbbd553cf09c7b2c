package graphmodel_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/planvet"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/webgl"
	"repro/internal/webgpu"
)

// These tests pin what the one plan executor took over from the ops.*
// interpreter it replaced: it runs on every backend, it reports the kernels
// it dispatches, it migrates feeds and weights, and a node it cannot lower
// fails only the execution that reaches it.

func init() {
	core.Global().RegisterBackend("webgpu", func() (kernels.Backend, error) { return webgpu.New(webgl.DefaultConfig()), nil })
}

// onBackend switches the global engine for the duration of the test.
func onBackend(t *testing.T, name string) kernels.Backend {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.SetBackend("cpu"); err != nil {
			t.Fatal(err)
		}
	})
	return e.Backend()
}

func imageFeed(size int) *tensor.Tensor {
	vals := make([]float32, size*size*3)
	for i := range vals {
		vals[i] = float32(i%251)/251 - 0.3
	}
	return ops.FromValues(vals, 1, size, size, 3)
}

// predictBits runs one Predict and returns a copy of the output.
func predictBits(t *testing.T, m *graphmodel.Model, x *tensor.Tensor) []float32 {
	t.Helper()
	y, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Dispose()
	return append([]float32(nil), y.DataSync()...)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelEvents collects the KindKernel events emitted while fn runs.
func kernelEvents(fn func()) []telemetry.Event {
	var evs []telemetry.Event
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindKernel {
			evs = append(evs, ev)
		}
	}))
	defer remove()
	fn()
	return evs
}

// handlesDuring counts the tensor handles the engine registers while fn
// runs. The plan executor registers exactly the outputs it hands back; the
// interpreter it replaced registered one per node.
func handlesDuring(t *testing.T, fn func()) int64 {
	t.Helper()
	lt := telemetry.NewLifetimeTracker(1)
	remove, err := core.Global().TrackLifetimes(lt)
	if err != nil {
		t.Fatal(err)
	}
	defer remove()
	fn()
	return lt.Report().Allocs
}

// mobileNetKernels is the kernel sequence of one optimized MobileNet v1
// execute, taken from the parent commit's interpreter: the stem conv, 13
// depthwise/pointwise pairs, the global-average-pool Mean over the input's
// own axes, the fused classifier and the softmax.
func mobileNetKernels() []string {
	names := []string{"FusedConv2D"}
	for i := 0; i < 13; i++ {
		names = append(names, "FusedDepthwiseConv2dNative", "FusedConv2D")
	}
	return append(names, "Mean", "_FusedMatMul", "Softmax")
}

// TestKernelEventsMatchTheInterpreter: observed, the plan reports the same
// kernels, in the same order, with the same operand and result shapes as the
// ops.* interpreter did — 30 per MobileNet execute, every execute.
func TestKernelEventsMatchTheInterpreter(t *testing.T) {
	for _, backend := range []string{"node", "webgl"} {
		t.Run(backend, func(t *testing.T) {
			onBackend(t, backend)
			m, err := graphmodel.New(mobileNetGraph(t, 0.25, 96))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Dispose()
			x := imageFeed(96)
			defer x.Dispose()
			for round := 0; round < 2; round++ {
				var y *tensor.Tensor
				evs := kernelEvents(func() {
					if y, err = m.Predict(x); err != nil {
						t.Fatal(err)
					}
				})
				var names []string
				for _, ev := range evs {
					names = append(names, ev.Name)
					if len(ev.OutputShapes) != 1 {
						t.Fatalf("%s: output shapes %v, want one", ev.Name, ev.OutputShapes)
					}
					if elements := int64(tensor.ShapeSize(ev.OutputShapes[0])); ev.Bytes != 4*elements || ev.TotalBytes < ev.Bytes {
						t.Errorf("%s: Bytes %d / TotalBytes %d for %d float32 elements", ev.Name, ev.Bytes, ev.TotalBytes, elements)
					}
					if ev.Backend != backend || ev.Span != m.Span() {
						t.Errorf("%s: attributed to backend %q span %q", ev.Name, ev.Backend, ev.Span)
					}
				}
				if want := mobileNetKernels(); !reflect.DeepEqual(names, want) {
					t.Fatalf("round %d: kernel events\n got %v\nwant %v", round, names, want)
				}
				for _, c := range []struct {
					at      int
					in, out [][]int
				}{
					{0, [][]int{{1, 96, 96, 3}, {3, 3, 3, 8}, {8}}, [][]int{{1, 48, 48, 8}}},
					{1, [][]int{{1, 48, 48, 8}, {3, 3, 8, 1}, {8}}, [][]int{{1, 48, 48, 8}}},
					{27, [][]int{{1, 3, 3, 256}}, [][]int{{1, 256}}},
					{28, [][]int{{1, 256}, {256, 1000}, {1000}}, [][]int{{1, 1000}}},
					{29, [][]int{{1, 1000}}, [][]int{y.Shape}},
				} {
					if ev := evs[c.at]; !reflect.DeepEqual(ev.InputShapes, c.in) || !reflect.DeepEqual(ev.OutputShapes, c.out) {
						t.Errorf("event %d (%s): shapes %v -> %v, want %v -> %v", c.at, ev.Name, ev.InputShapes, ev.OutputShapes, c.in, c.out)
					}
				}
				y.Dispose()
			}
		})
	}
}

// TestOnePlanOnEveryBackend: the same plan executes on cpu, node, webgl and
// webgpu, and keeps executing — same bits, no per-node tensor handles — with
// an observer attached, with the lifetime tracker on, with both, and with
// the buffer recycler off.
func TestOnePlanOnEveryBackend(t *testing.T) {
	g := mobileNetGraph(t, 0.25, 32)
	var reference []float32
	for _, backend := range []string{"cpu", "node", "webgl", "webgpu"} {
		t.Run(backend, func(t *testing.T) {
			bk := onBackend(t, backend)
			m, err := graphmodel.New(g)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Dispose()
			x := imageFeed(32)
			defer x.Dispose()

			plain := predictBits(t, m, x)
			if reference == nil {
				reference = plain
			}
			for i := range plain {
				if diff := math.Abs(float64(plain[i] - reference[i])); diff > 1e-4 {
					t.Fatalf("output[%d] = %g, cpu reference %g (diff %g)", i, plain[i], reference[i], diff)
				}
			}

			var observed, tracked, both []float32
			evs := kernelEvents(func() { observed = predictBits(t, m, x) })
			if len(evs) != len(mobileNetKernels()) {
				t.Errorf("observed execute reported %d kernels, want %d", len(evs), len(mobileNetKernels()))
			}
			if n := handlesDuring(t, func() { tracked = predictBits(t, m, x) }); n != 1 {
				t.Errorf("tracked execute registered %d tensor handles, want 1 (the output)", n)
			}
			if n := handlesDuring(t, func() {
				if evs := kernelEvents(func() { both = predictBits(t, m, x) }); len(evs) != len(mobileNetKernels()) {
					t.Errorf("observed and tracked execute reported %d kernels", len(evs))
				}
			}); n != 1 {
				t.Errorf("observed and tracked execute registered %d tensor handles, want 1: observing changed the executor", n)
			}
			for name, got := range map[string][]float32{"observed": observed, "tracked": tracked, "observed+tracked": both} {
				if !sameBits(got, plain) {
					t.Errorf("%s execute is not bit-identical to the plain one", name)
				}
			}

			if p, ok := bk.(interface {
				kernels.Recycler
				EnablePooling(bool)
			}); ok {
				defer p.EnablePooling(p.PoolActive())
				p.EnablePooling(false)
				var unpooled []float32
				if n := handlesDuring(t, func() { unpooled = predictBits(t, m, x) }); n != 1 {
					t.Errorf("unpooled execute registered %d tensor handles, want 1: the recycler switch changed the executor", n)
				}
				if !sameBits(unpooled, plain) {
					t.Error("unpooled execute is not bit-identical to the pooled one")
				}
			}
		})
	}
}

// TestFeedsAndWeightsMigrate: a feed created on another backend is moved to
// the model's backend by the executor, and weights follow the active backend
// — once per switch, not once per execute.
func TestFeedsAndWeightsMigrate(t *testing.T) {
	e := core.Global()
	cpuBK := onBackend(t, "cpu")
	foreign := imageFeed(32)
	defer foreign.Dispose()

	nodeBK := onBackend(t, "node")
	m, err := graphmodel.New(mobileNetGraph(t, 0.25, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	resident := imageFeed(32)
	defer resident.Dispose()
	if e.DataBackend(foreign.DataID) != cpuBK {
		t.Fatal("test setup: the foreign feed should start on cpu")
	}
	onNode := predictBits(t, m, resident)
	if got := predictBits(t, m, foreign); !sameBits(got, onNode) {
		t.Error("output from a migrated feed differs from a resident feed's")
	}
	if e.DataBackend(foreign.DataID) != nodeBK {
		t.Error("the executor did not migrate the foreign feed to the model's backend")
	}

	weights := len(m.OptimizedGraph().Weights)
	nodeBuffers := nodeBK.Memory().NumBuffers
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	cpuBuffers := cpuBK.Memory().NumBuffers
	onCPU := predictBits(t, m, resident)
	// The feed moved too: weights+1 containers changed sides.
	if got := cpuBK.Memory().NumBuffers - cpuBuffers; got != weights+1 {
		t.Errorf("first execute after the switch moved %d containers to cpu, want %d weights + the feed", got, weights)
	}
	if got := nodeBuffers - nodeBK.Memory().NumBuffers; got != weights+1 {
		t.Errorf("first execute after the switch moved %d containers off node, want %d", got, weights+1)
	}
	if again := predictBits(t, m, resident); !sameBits(again, onCPU) {
		t.Error("second execute on cpu differs from the first")
	}
	if got := cpuBK.Memory().NumBuffers - cpuBuffers; got != weights+1 {
		t.Errorf("second execute moved containers again: cpu holds %d more than before the switch", got)
	}
	for i := range onCPU {
		if diff := math.Abs(float64(onCPU[i] - onNode[i])); diff > 1e-4 {
			t.Fatalf("output[%d] after migrating to cpu = %g, on node %g", i, onCPU[i], onNode[i])
		}
	}

	if err := e.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	if back := predictBits(t, m, resident); !sameBits(back, onNode) {
		t.Error("output after switching back to node differs from before the round trip")
	}
	if got := nodeBK.Memory().NumBuffers; got != nodeBuffers {
		t.Errorf("node holds %d containers after the round trip, %d before", got, nodeBuffers)
	}
}

// brokenNodeGraph is x -> Relu -> bad -> Relu with one node the plan cannot
// lower.
func brokenNodeGraph(bad savedmodel.NodeDef) *savedmodel.GraphDef {
	bad.Name = "bad"
	if bad.Inputs == nil {
		bad.Inputs = []string{"r"}
	}
	return &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "w", Op: "Const"},
			{Name: "r", Op: "Relu", Inputs: []string{"x"}},
			bad,
			{Name: "y", Op: "Relu", Inputs: []string{"bad"}},
		},
		Weights: map[string]*savedmodel.Weight{
			"w": {Name: "w", Shape: []int{1, 1, 1, 1}, DType: "float32", Values: []float32{1}},
		},
		Inputs:  []string{"x"},
		Outputs: []string{"y"},
	}
}

// TestBrokenNodeFailsOnlyWhenReached: a node with no lowering does not
// disqualify the model or its plan — the verifier is silent on it. Loading
// succeeds, the plan exports and verifies, reaching the node fails with the
// interpreter's message and hands every container back, and feeding the
// node steps over it. A lowered node with a malformed attribute or the
// wrong arity is no such node: the load rejects it, naming it.
func TestBrokenNodeFailsOnlyWhenReached(t *testing.T) {
	bk := onBackend(t, "node")
	for _, tc := range []struct {
		name string
		node savedmodel.NodeDef
		want string
		// atLoad: the load rejects the node with issue want.
		atLoad bool
	}{
		{"unsupported op", savedmodel.NodeDef{Op: "FFT"},
			`graphmodel: unsupported op "FFT" (node "bad")`, false},
		{"pad with two paddings", savedmodel.NodeDef{Op: "Pad", Attrs: map[string]any{"padding": []int{1, 1}}},
			`node "bad" (Pad): attr "padding" needs [top bottom left right], got [1 1]`, true},
		// The int8 compute tier is gone: no plan lowers its ops.
		{"quantized op is unsupported", savedmodel.NodeDef{Op: "QuantizedFusedConv2D", Inputs: []string{"r", "w"}},
			`graphmodel: unsupported op "QuantizedFusedConv2D" (node "bad")`, false},
		{"fused op with one input", savedmodel.NodeDef{Op: "FusedConv2D"},
			`node "bad" (FusedConv2D): needs 2 or 3 inputs, got 1`, true},
		{"binary op with one input", savedmodel.NodeDef{Op: "Add"},
			`node "bad" (Add): needs 2 inputs, got 1`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := graphmodel.New(brokenNodeGraph(tc.node))
			if tc.atLoad {
				var ve *savedmodel.VerifyError
				if !errors.As(err, &ve) || len(ve.Issues) != 1 || ve.Issues[0].String() != tc.want {
					t.Fatalf("New returned %v, want a *savedmodel.VerifyError with the one issue %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("New must defer the broken node to Execute: %v", err)
			}
			defer m.Dispose()
			if err := planvet.Verify(m.PlanIR()); err != nil {
				t.Fatalf("the plan with an error step does not verify: %v", err)
			}
			x := ops.FromValues([]float32{-1, 2, -3, 4}, 1, 2, 2, 1)
			defer x.Dispose()
			tensors, bytes := core.Global().NumTensors(), bk.Memory().NumBytes

			if _, err := m.Predict(x); err == nil || err.Error() != tc.want {
				t.Fatalf("reaching the node: error %v, want %q", err, tc.want)
			}
			if got := bk.Memory().NumBytes; got != bytes {
				t.Errorf("backend holds %d bytes after the failed execute, %d before: a plan-owned container leaked", got, bytes)
			}

			fed := ops.FromValues([]float32{-5, 6, -7, 8}, 1, 2, 2, 1)
			defer fed.Dispose()
			outs, err := m.Execute(map[string]*tensor.Tensor{"x": x, "bad": fed})
			if err != nil {
				t.Fatalf("feeding the node must step over it: %v", err)
			}
			if got := outs["y"].DataSync(); !reflect.DeepEqual(got, []float32{0, 6, 0, 8}) {
				t.Errorf("output with the node fed = %v, want relu of the feed", got)
			}
			outs["y"].Dispose()
			if fed.Disposed() || x.Disposed() {
				t.Error("the executor disposed a caller-owned feed")
			}
			if got := core.Global().NumTensors(); got != tensors+1 {
				t.Errorf("%d tensors live, want %d (+ the one feed)", got, tensors+1)
			}
			if got := bk.Memory().NumBytes; got != bytes+int64(fed.Bytes()) {
				t.Errorf("backend holds %d bytes after the fed execute, want %d", got, bytes+int64(fed.Bytes()))
			}
		})
	}
}

// TestKernelErrorsAreOpErrors: a feed the kernels reject comes back as a
// *core.OpError naming the kernel — what the serving tier maps to a 400 —
// and every container produced before the failure is handed back.
func TestKernelErrorsAreOpErrors(t *testing.T) {
	bk := onBackend(t, "node")
	m, err := graphmodel.New(mobileNetGraph(t, 0.25, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	x := ops.FromValues(make([]float32, 32*32*3), 32, 32, 3) // rank 3: no batch dimension
	defer x.Dispose()
	bytes := bk.Memory().NumBytes
	_, err = m.Predict(x)
	var opErr *core.OpError
	if !errors.As(err, &opErr) || opErr.Kernel != "FusedConv2D" {
		t.Fatalf("Predict on a rank-3 image: %v, want an OpError from FusedConv2D", err)
	}
	if got := bk.Memory().NumBytes; got != bytes {
		t.Errorf("backend holds %d bytes after the failed execute, %d before", got, bytes)
	}
}

// TestDebugModeThrowsInsideGraphModel: debug mode checks the plan's kernels
// like any other — the first kernel that produces a NaN panics with a
// *core.OpError naming it, its record is kept, and nothing leaks.
func TestDebugModeThrowsInsideGraphModel(t *testing.T) {
	bk := onBackend(t, "node")
	e := core.Global()
	// Unoptimized, so the first kernel is the plain BatchMatMul: a fused
	// relu epilogue would swallow the NaN.
	m, err := graphmodel.New(tinyGraph(), graphmodel.WithExecOptions(exec.WithOptimize(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	x := ops.FromValues([]float32{float32(math.NaN()), 1}, 1, 2)
	defer x.Dispose()
	tensors, bytes := e.NumTensors(), bk.Memory().NumBytes

	e.SetDebugMode(true)
	defer e.SetDebugMode(false)
	var thrown any
	func() {
		defer func() { thrown = recover() }()
		y, err := m.Predict(x)
		t.Errorf("Predict returned (%v, %v) instead of panicking", y, err)
	}()
	opErr, ok := thrown.(*core.OpError)
	if !ok || opErr.Kernel != "BatchMatMul" || !strings.Contains(opErr.Error(), "NaN") {
		t.Fatalf("debug mode: recovered %v, want a *core.OpError from BatchMatMul about a NaN", thrown)
	}
	if recs := e.DebugKernels(); len(recs) != 1 || recs[0].Name != "BatchMatMul" {
		t.Errorf("debug records %+v, want exactly the kernel that threw", recs)
	}
	if got := e.NumTensors(); got != tensors {
		t.Errorf("%d tensors live after the panic, %d before", got, tensors)
	}
	if got := bk.Memory().NumBytes; got != bytes {
		t.Errorf("backend holds %d bytes after the panic, %d before", got, bytes)
	}
}

// TestFedAliasOutputFreesTheRootBehindIt: when the caller feeds an output
// that aliases a computed container, the feed is returned as the output and
// the container the plan computed behind it goes back to the backend.
func TestFedAliasOutputFreesTheRootBehindIt(t *testing.T) {
	bk := onBackend(t, "node")
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder"},
			{Name: "r", Op: "Relu", Inputs: []string{"x"}},
			{Name: "y", Op: "Identity", Inputs: []string{"r"}},
		},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"x"},
		Outputs: []string{"y"},
	}
	m, err := graphmodel.New(g, graphmodel.WithExecOptions(exec.WithOptimize(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	x := ops.FromValues([]float32{-1, 2}, 1, 2)
	defer x.Dispose()
	fed := ops.FromValues([]float32{3, 4}, 1, 2)
	defer fed.Dispose()
	bytes := bk.Memory().NumBytes
	outs, err := m.Execute(map[string]*tensor.Tensor{"x": x, "y": fed})
	if err != nil {
		t.Fatal(err)
	}
	if outs["y"] != fed {
		t.Error("a fed output must come back as the caller's tensor")
	}
	if got := bk.Memory().NumBytes; got != bytes {
		t.Errorf("backend holds %d bytes after the execute, %d before: the computed root leaked", got, bytes)
	}
}

// TestEmptyAxisAnswersAsEagerDoes: a one-node graph Mean over an empty axis
// and a Softmax over an empty last axis give the eager op's answer on cpu,
// node and webgl — a NaN mean per row, and an empty [2, 0] softmax — since
// both run the one kernel on the op's own shape.
func TestEmptyAxisAnswersAsEagerDoes(t *testing.T) {
	for _, backend := range []string{"cpu", "node", "webgl"} {
		t.Run(backend, func(t *testing.T) {
			onBackend(t, backend)
			x := ops.FromValues(nil, 2, 0)
			defer x.Dispose()
			for _, c := range []struct {
				op    string
				attrs map[string]any
				eager func() *tensor.Tensor
				shape []int
			}{
				{"Mean", map[string]any{"axes": []int{1}}, func() *tensor.Tensor { return ops.Mean(x, []int{1}, false) }, []int{2}},
				{"Softmax", nil, func() *tensor.Tensor { return ops.Softmax(x) }, []int{2, 0}},
			} {
				m, err := graphmodel.New(&savedmodel.GraphDef{
					Nodes: []savedmodel.NodeDef{
						{Name: "x", Op: "Placeholder", Attrs: map[string]any{"dtype": "float32", "shape": []int{2, 0}}},
						{Name: "y", Op: c.op, Inputs: []string{"x"}, Attrs: c.attrs},
					},
					Inputs: []string{"x"}, Outputs: []string{"y"},
				})
				if err != nil {
					t.Fatalf("%s: %v", c.op, err)
				}
				got, want := predictBits(t, m, x), c.eager()
				m.Dispose()
				if !reflect.DeepEqual(want.Shape, c.shape) || !sameBits(got, want.DataSync()) {
					t.Errorf("%s: graph %v, eager %v of shape %v, want shape %v", c.op, got, want.DataSync(), want.Shape, c.shape)
				}
				if c.op == "Mean" && !math.IsNaN(float64(got[0])) {
					t.Errorf("Mean over an empty axis is %v, want NaN", got)
				}
				want.Dispose()
			}
		})
	}
}
