package graphmodel_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/ops"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestRewritesHappenOnlyAtLoad: loading emits KindRewrite events; Execute
// never does. The second Execute (and every one after) runs the shared
// compiled plan with zero rewriting and zero attr decoding.
func TestRewritesHappenOnlyAtLoad(t *testing.T) {
	var rewrites atomic.Int64
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRewrite {
			rewrites.Add(1)
		}
	}))
	defer remove()

	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	if rewrites.Load() == 0 {
		t.Fatal("loading tinyGraph must record rewrite events")
	}
	rewrites.Store(0)

	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	for i := 0; i < 3; i++ {
		out, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		out.Dispose()
	}
	if n := rewrites.Load(); n != 0 {
		t.Fatalf("Execute must not rewrite; got %d rewrite events", n)
	}
}

// TestAttrsDecodedAtLoad: mutating the graph's attr maps after New has no
// effect on execution — the plan holds typed copies decoded at load, so
// Execute re-parses nothing.
func TestAttrsDecodedAtLoad(t *testing.T) {
	g := tinyGraph()
	// Optimization off so the execution graph IS g: any live attr read
	// during Execute would see the sabotage below.
	m, err := graphmodel.New(g, graphmodel.WithExecOptions(exec.WithOptimize(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	for i := range g.Nodes {
		g.Nodes[i].Attrs = map[string]any{"transpose_a": true, "transpose_b": true, "strides": []int{9, 9}}
	}
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Dispose()
	if got := out.DataSync(); got[0] != 3.5 || got[1] != 0 {
		t.Fatalf("attr mutation leaked into execution: got %v, want [3.5 0]", got)
	}
}

// TestConcurrentExecuteSharesPlan: many goroutines Execute one model
// concurrently; the plan is shared and immutable, each execution owns its
// slot array. Run under -race in CI.
func TestConcurrentExecuteSharesPlan(t *testing.T) {
	m, err := graphmodel.New(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var x *tensor.Tensor
				core.Global().RunExclusive(func() { x = ops.FromValues([]float32{1, 1}, 1, 2) })
				out, err := m.Predict(x)
				if err != nil {
					errs <- err
					return
				}
				var got []float32
				core.Global().RunExclusive(func() { got = out.DataSync() })
				if got[0] != 3.5 || got[1] != 0 {
					errs <- fmt.Errorf("concurrent output %v", got)
					return
				}
				out.Dispose()
				x.Dispose()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFeedOverridesInteriorNode: feeding any node name short-circuits its
// step, as the lazy executor's env pre-population did — and the fed tensor
// is never disposed by the liveness pass.
func TestFeedOverridesInteriorNode(t *testing.T) {
	m, err := graphmodel.New(tinyGraph(), graphmodel.WithExecOptions(exec.WithOptimize(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	x := ops.FromValues([]float32{1, 1}, 1, 2)
	defer x.Dispose()
	// Override the BiasAdd output: y = relu(add).
	add := ops.FromValues([]float32{-2, 7}, 1, 2)
	defer add.Dispose()
	outs, err := m.Execute(map[string]*tensor.Tensor{"x": x, "add": add})
	if err != nil {
		t.Fatal(err)
	}
	got := outs["y"].DataSync()
	outs["y"].Dispose()
	if got[0] != 0 || got[1] != 7 {
		t.Fatalf("interior feed ignored: got %v, want [0 7]", got)
	}
	if add.Disposed() {
		t.Fatal("liveness disposal must never touch caller-owned feeds")
	}
}

// reluChain builds a depth-n chain of Relu nodes: every intermediate has
// the input's size, so the peak-memory effect of liveness disposal is easy
// to bound.
func reluChain(depth int) *savedmodel.GraphDef {
	g := &savedmodel.GraphDef{
		Nodes:   []savedmodel.NodeDef{{Name: "x", Op: "Placeholder"}},
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  []string{"x"},
	}
	prev := "x"
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("r%d", i)
		g.Nodes = append(g.Nodes, savedmodel.NodeDef{Name: name, Op: "Relu", Inputs: []string{prev}})
		prev = name
	}
	g.Outputs = []string{prev}
	return g
}

// TestLivenessBoundsPeakMemory: executing a depth-8 chain of equal-sized
// intermediates must peak at O(1) live tensors, not O(depth) — each
// intermediate is disposed at its statically-known last use instead of
// surviving to the end-of-execute scope teardown (which would hold all
// depth+1 tensors at once).
func TestLivenessBoundsPeakMemory(t *testing.T) {
	const depth, width = 8, 65536
	const tensorBytes = int64(width) * 4

	m, err := graphmodel.New(reluChain(depth))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()

	x := ops.FromValues(make([]float32, width), 1, width)
	defer x.Dispose()

	baseline := core.Global().Memory().NumBytes
	var peak int64
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindKernel && ev.TotalBytes > peak {
			peak = ev.TotalBytes
		}
	}))
	defer remove()

	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	out.Dispose()

	// Live set at any step: the (persistent) input, the step's operand and
	// its fresh output — three tensors. Without eager disposal every one of
	// the depth+1 tensors would be held until the scope closed.
	limit := baseline + 3*tensorBytes + tensorBytes/2
	noDisposal := baseline + int64(depth+1)*tensorBytes
	if peak == 0 {
		t.Fatal("no kernel events observed")
	}
	if peak > limit {
		t.Fatalf("peak engine memory %d exceeds liveness bound %d (no-disposal peak would be %d)",
			peak, limit, noDisposal)
	}
}
