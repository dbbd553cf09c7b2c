package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestServedExecuteAllocBudget asserts which path serves a request: behind
// NewServer — trace recorder and kernel stats attached to the hub, as
// tfjs-serve runs — a predict executes the same direct-dispatch plan the
// allocation gate and planvet cover, and that plan still reports every
// kernel. The budget is the evidence: the handle-tracking interpreter that
// used to take over whenever an observer was attached cost ~1000
// allocations per MobileNet execute; the plan costs ~50 unobserved and
// under 320 (278 measured) with the server's two observers recording 31
// kernel events.
func TestServedExecuteAllocBudget(t *testing.T) {
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m := loadReady(t, reg, "mobilenet", store, ModelOptions{Backend: "node"})
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	if !core.Global().Telemetry().Active() {
		t.Fatal("NewServer attached no observer to the engine's hub")
	}

	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(i%255) / 255
	}
	body, err := json.Marshal(map[string]any{"instances": []any{img.Render()}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/models/mobilenet:predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, data)
	}

	// The plan executor emits the kernel events itself: /metrics keeps its
	// per-kernel series for the model, under the same names.
	_, metrics := get(t, srv.URL+"/metrics", nil)
	for kernel, count := range map[string]int{
		"FusedConv2D": 14, "FusedDepthwiseConv2dNative": 13, "Transpose": 1, "Mean": 1, "_FusedMatMul": 1, "Softmax": 1,
	} {
		line := fmt.Sprintf("serving_kernel_invocations_total{model=%q,kernel=%q} %d\n", "mobilenet", kernel, count)
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics after one HTTP predict is missing %q", strings.TrimSpace(line))
		}
	}

	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	gm := m.sched.run.(*graphRunner).model
	e := gm.Engine()
	var x *tensor.Tensor
	e.RunExclusive(func() { x = e.MakeTensor(img.Values, []int{1, 96, 96, 3}, tensor.Float32) })
	defer e.RunExclusive(func() { x.Dispose() })
	feeds := map[string]*tensor.Tensor{gm.Graph().Inputs[0]: x}
	execute := func() {
		outs, err := gm.Execute(feeds)
		if err != nil {
			t.Fatal(err)
		}
		e.RunExclusive(func() {
			for _, out := range outs {
				out.Dispose()
			}
		})
	}
	for i := 0; i < 3; i++ { // warm-up: pool fill, plan caches, observer maps
		execute()
	}
	allocs := testing.AllocsPerRun(10, execute)
	t.Logf("observed Model.Execute behind NewServer: %.0f allocs/op", allocs)
	if allocs > 320 {
		t.Fatalf("observed Model.Execute allocates %.0f/op behind NewServer, budget 320: the served path is not the direct-dispatch plan", allocs)
	}
}

// testImage is a [side, side, 3] instance whose values depend on seed, so
// a row delivered to the wrong request, or shifted, changes its output.
func testImage(side, seed int) Instance {
	img := Instance{Values: make([]float32, side*side*3), Shape: []int{side, side, 3}}
	for i := range img.Values {
		img.Values[i] = float32((i*(seed+3)+seed*31)%255) / 255
	}
	return img
}

// loadReady loads store under name and waits for it.
func loadReady(t *testing.T, reg *Registry, name string, store converter.Store, opts ModelOptions) *Model {
	t.Helper()
	m, err := reg.Load(name, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return m
}

// smallStores is one small MobileNet per artifact format, "graph" and
// "layers": the two kinds of runner a registry builds.
func smallStores(t *testing.T, side int) map[string]converter.Store {
	t.Helper()
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: side, NumClasses: 6, IncludeTop: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	layersStore := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(model, layersStore, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	return map[string]converter.Store{"graph": buildMobileNetStore(t, side, 6), "layers": layersStore}
}

// sameMemory fails unless the global engine tracks as many tensors and
// bytes as it did at before.
func sameMemory(t *testing.T, when string, before core.MemoryInfo) {
	t.Helper()
	if after := core.Global().Memory(); after.NumTensors != before.NumTensors || after.NumBytes != before.NumBytes {
		t.Errorf("engine holds %d tensors / %d bytes %s, %d / %d before",
			after.NumTensors, after.NumBytes, when, before.NumTensors, before.NumBytes)
	}
}

// oneAtATime runs every instance as its own batch of one.
func oneAtATime(t *testing.T, run runner, insts []Instance) []Instance {
	t.Helper()
	outs := make([]Instance, len(insts))
	for i := range insts {
		out, err := run.run(insts[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out[0]
	}
	return outs
}

// wholeBatches makes a batch leave the moment it holds n requests and not
// before: the timeout is only how long a broken test waits to fail.
func wholeBatches(n int) Config {
	return Config{MaxBatchSize: n, BatchTimeout: 20 * time.Second, QueueSize: 64}
}

// predictAll submits every instance concurrently and returns the outputs
// in submission order.
func predictAll(t testing.TB, m *Model, insts []Instance) []Instance {
	t.Helper()
	outs := make([]Instance, len(insts))
	errs := make([]error, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = m.Predict(context.Background(), insts[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return outs
}

// sameBits fails unless got and want are bitwise the same predictions.
func sameBits(t *testing.T, what string, got, want []Instance) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Shape, want[i].Shape) || len(got[i].Values) != len(want[i].Values) {
			t.Fatalf("%s: output %d is %d values of shape %v, want %d of %v",
				what, i, len(got[i].Values), got[i].Shape, len(want[i].Values), want[i].Shape)
		}
		for j, v := range want[i].Values {
			if math.Float32bits(got[i].Values[j]) != math.Float32bits(v) {
				t.Fatalf("%s: output %d value %d = %v, want %v", what, i, j, got[i].Values[j], v)
			}
		}
	}
}

// TestCoalescedBatchIsOneSlab: eight concurrent HTTP predicts that share
// one batch cost one upload and one download, dispatch no kernel of the
// runner's own, return what the same eight instances return one at a time,
// bit for bit, and leave the engine's tensor and byte counts where they
// were.
func TestCoalescedBatchIsOneSlab(t *testing.T) {
	const n = 8
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	loadReady(t, reg, "single", store, ModelOptions{Backend: "node", Batching: Config{MaxBatchSize: 1}})
	batched := loadReady(t, reg, "batched", store, ModelOptions{Backend: "node", Batching: wholeBatches(n)})
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	bodies := make([][]byte, n)
	for i := range bodies {
		body, err := json.Marshal(map[string]any{"instances": []any{testImage(96, i).Render()}})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	predict := func(model string, i int) (Instance, error) {
		resp, err := http.Post(srv.URL+"/v1/models/"+model+":predict", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return Instance{}, err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return Instance{}, fmt.Errorf("%s predict %d: status %d: %s", model, i, resp.StatusCode, data)
		}
		var out struct {
			Predictions [][]float32 `json:"predictions"`
		}
		if err := json.Unmarshal(data, &out); err != nil || len(out.Predictions) != 1 {
			return Instance{}, fmt.Errorf("%s predict %d: bad response %s: %v", model, i, data, err)
		}
		return Instance{Values: out.Predictions[0], Shape: []int{len(out.Predictions[0])}}, nil
	}

	want := make([]Instance, n)
	for i := range want {
		var err error
		if want[i], err = predict("single", i); err != nil {
			t.Fatal(err)
		}
	}

	before := core.Global().Memory()
	var mu sync.Mutex
	moved := map[telemetry.EventKind]int{}
	var runnerKernels []string
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case telemetry.KindUpload, telemetry.KindDownload:
			moved[ev.Kind]++
		case telemetry.KindKernel:
			if ev.Span == "" {
				runnerKernels = append(runnerKernels, ev.Name)
			}
		}
	}))
	got := make([]Instance, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = predict("batched", i)
		}()
	}
	wg.Wait()
	remove()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	if sizes := batched.metrics.snapshot(0).BatchSizes; len(sizes) != 1 || sizes[n] != 1 {
		t.Fatalf("the %d predicts ran as batches %v, want one batch of %d", n, sizes, n)
	}
	sameBits(t, "batch of 8 vs one at a time", got, want)
	if moved[telemetry.KindUpload] != 1 || moved[telemetry.KindDownload] != 1 {
		t.Errorf("one batch made %d uploads and %d downloads, want 1 and 1", moved[telemetry.KindUpload], moved[telemetry.KindDownload])
	}
	if len(runnerKernels) != 0 {
		t.Errorf("the runner dispatched kernels to move the batch: %v", runnerKernels)
	}
	_, metrics := get(t, srv.URL+"/metrics", nil)
	_, trace := get(t, srv.URL+"/debug/trace?seconds=120", nil)
	for _, kernel := range []string{"Concat", "Slice"} {
		if strings.Contains(metrics, fmt.Sprintf("kernel=%q", kernel)) {
			t.Errorf("/metrics has a kernel=%q series", kernel)
		}
		if strings.Contains(trace, fmt.Sprintf(`"name":%q`, kernel)) {
			t.Errorf("/debug/trace has a %s event", kernel)
		}
	}
	sameMemory(t, "after the batch", before)
}

// TestBatchRowsBelongToTheirRequest covers what sharing one read-back and
// one slab must not let happen: a caller appending to its output reaching
// its neighbour's, and an instance with too few values shifting the rows
// behind it.
func TestBatchRowsBelongToTheirRequest(t *testing.T) {
	store := buildMobileNetStore(t, 32, 6)
	reg := NewRegistry()
	defer reg.Close()
	run := loadReady(t, reg, "rows", store, ModelOptions{Backend: "node"}).sched.run
	batch := []Instance{testImage(32, 0), testImage(32, 1), testImage(32, 2)}
	want := oneAtATime(t, run, batch)

	outs, err := run.run(batch)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "batch of 3", outs, want)
	_ = append(outs[0].Values, 42, 42)
	sameBits(t, "after appending to output 0", outs[1:], want[1:])

	short := slices.Clone(batch)
	short[1].Values = short[1].Values[:len(short[1].Values)-1]
	outs, err = run.run(short)
	var opErr *core.OpError
	if !errors.As(err, &opErr) || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("batch with a short instance: error %v (status %d), want a *core.OpError (400)", err, statusFor(err))
	}
	if outs != nil {
		t.Fatalf("batch with a short instance still returned outputs: %v", outs)
	}
	// The slab is reused: the failed batch must leave nothing behind in it.
	outs, err = run.run(batch)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "batch after a failed one", outs, want)
}

// TestWorkersShareOneSlab: a model's scheduler workers all call the one
// runner, and so fill the one slab; what serializes them is the engine's
// execution lock. Many small batches from four workers at once, every
// output checked against its own instance's (and the race detector
// watching the slab in CI).
func TestWorkersShareOneSlab(t *testing.T) {
	const side = 32
	for format, store := range smallStores(t, side) {
		t.Run(format, func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			m := loadReady(t, reg, "m", store, ModelOptions{Backend: "node", Batching: Config{
				MaxBatchSize: 3, BatchTimeout: time.Millisecond, Workers: 4, QueueSize: 64,
			}})
			insts := make([]Instance, 48)
			for i := range insts {
				insts[i] = testImage(side, i%5)
			}
			want := oneAtATime(t, m.sched.run, insts[:5])
			for i := 5; i < len(insts); i++ {
				want = append(want, want[i%5])
			}
			sameBits(t, "48 predicts over 4 workers", predictAll(t, m, insts), want)
		})
	}
}

// TestMixedShapeBatchRunsPerShape: requests of two shapes gathered into one
// batch reach the runner as two same-shaped groups, and each gets its own
// instance back.
func TestMixedShapeBatchRunsPerShape(t *testing.T) {
	var mu sync.Mutex
	var calls [][]Instance
	m := stubModel("mixed", wholeBatches(4), runnerFunc(func(batch []Instance) ([]Instance, error) {
		mu.Lock()
		calls = append(calls, batch)
		mu.Unlock()
		return batch, nil
	}))
	defer m.unload()
	insts := []Instance{
		{Values: []float32{1, 2}, Shape: []int{2}},
		{Values: []float32{3, 4}, Shape: []int{1, 2}},
		{Values: []float32{5, 6}, Shape: []int{2}},
		{Values: []float32{7, 8}, Shape: []int{1, 2}},
	}
	sameBits(t, "echo of a mixed batch", predictAll(t, m, insts), insts)
	if len(calls) != 2 || len(calls[0]) != 2 || len(calls[1]) != 2 {
		t.Fatalf("runner saw %v, want two groups of two", calls)
	}
	for _, group := range calls {
		if !slices.Equal(group[0].Shape, group[1].Shape) {
			t.Errorf("one runner call mixes shapes %v and %v", group[0].Shape, group[1].Shape)
		}
	}
}

// TestRejectedBatchLeavesNoTensor: a batch the model rejects (here: two
// channels where its first convolution takes three) is an error for its requests and nothing else —
// the uploaded slab tensor is disposed on that path too.
func TestRejectedBatchLeavesNoTensor(t *testing.T) {
	for format, store := range smallStores(t, 32) {
		t.Run(format, func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			run := loadReady(t, reg, "m", store, ModelOptions{Backend: "node"}).sched.run
			before := core.Global().Memory()
			gray := Instance{Values: make([]float32, 32*32*2), Shape: []int{32, 32, 2}}
			if outs, err := run.run([]Instance{gray, gray}); err == nil {
				t.Fatalf("an RGB model accepted two-channel instances: %v", outs)
			}
			sameMemory(t, "after the rejected batch", before)
		})
	}
}

// TestOutputLeadingDimensionMustBeBatch: a model whose output does not
// have one row per instance is a broken model (500, naming it and the
// shape) whatever the shape is — not a panic, not an Instance with k times
// the values its Shape declares, not the client's fault.
func TestOutputLeadingDimensionMustBeBatch(t *testing.T) {
	// x:[n,d] → xᵀ·W with W:[2,3] is [d,3] at n = 2; Mean over every axis
	// is a scalar.
	graphs := map[string]*savedmodel.GraphDef{
		"transposed": {
			Nodes: []savedmodel.NodeDef{
				{Name: "x", Op: "Placeholder"},
				{Name: "W", Op: "Const"},
				{Name: "y", Op: "MatMul", Inputs: []string{"x", "W"}, Attrs: map[string]any{"transpose_a": true}},
			},
			Weights: map[string]*savedmodel.Weight{
				"W": {Name: "W", Shape: []int{2, 3}, DType: "float32", Values: []float32{1, 2, 3, 4, 5, 6}},
			},
			Inputs: []string{"x"}, Outputs: []string{"y"},
		},
		"scalar": {
			Nodes: []savedmodel.NodeDef{
				{Name: "x", Op: "Placeholder"},
				{Name: "y", Op: "Mean", Inputs: []string{"x"}},
			},
			Inputs: []string{"x"}, Outputs: []string{"y"},
		},
	}
	reg := NewRegistry()
	defer reg.Close()
	for _, tc := range []struct {
		name, model string
		width       int // values per instance
		shape       string
	}{
		{"rank 0", "scalar", 4, "[]"},
		{"a multiple of the batch size", "transposed", 4, "[4 3]"},
		{"not a multiple of the batch size", "transposed", 3, "[3 3]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := reg.Get(tc.model)
			if !ok {
				store := converter.NewMemStore()
				if _, err := converter.Convert(graphs[tc.model], store, converter.Options{}); err != nil {
					t.Fatal(err)
				}
				m = loadReady(t, reg, tc.model, store, ModelOptions{Backend: "node"})
			}
			batch := make([]Instance, 2)
			for i := range batch {
				batch[i] = Instance{Values: make([]float32, tc.width), Shape: []int{tc.width}}
			}
			outs, err := m.sched.run.run(batch)
			if err == nil {
				t.Fatalf("output of shape %s split into a batch of 2: %v", tc.shape, outs)
			}
			if statusFor(err) != http.StatusInternalServerError {
				t.Errorf("status %d, want 500: %v", statusFor(err), err)
			}
			for _, part := range []string{fmt.Sprintf("%q", tc.model), tc.shape} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not name %s", err, part)
				}
			}
		})
	}
}

// TestBatchedEqualsSingleEverywhere: the slab path is the only path, so it
// is checked wherever a runner can be: graph and layers models, the native
// and the webgl backend, one engine and a two-replica pool (each batch
// twice, so both replicas serve one).
func TestBatchedEqualsSingleEverywhere(t *testing.T) {
	const side, n = 32, 4
	stores := smallStores(t, side)
	batch := make([]Instance, n)
	for i := range batch {
		batch[i] = testImage(side, i)
	}
	for _, tc := range []struct {
		format, backend string
		replicas        int
	}{
		{"graph", "node", 1}, {"graph", "node", 2}, {"graph", "webgl", 1}, {"graph", "webgl", 2},
		{"layers", "node", 1}, {"layers", "webgl", 1},
	} {
		t.Run(fmt.Sprintf("%s/%s/replicas%d", tc.format, tc.backend, tc.replicas), func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			run := loadReady(t, reg, "m", stores[tc.format], ModelOptions{Backend: tc.backend, Replicas: tc.replicas}).sched.run
			before := core.Global().Memory()
			want := oneAtATime(t, run, batch)
			for round := 0; round < tc.replicas; round++ {
				outs, err := run.run(batch)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("batch of %d, round %d", n, round), outs, want)
			}
			sameMemory(t, "after serving", before)
		})
	}
}

// TestBatchedPredictAllocBudget: what a batch of eight costs the heap end
// to end — eight Model.Predict calls, the scheduler, the slab, one plan
// execute, one read-back — behind NewServer's observers. 407 measured (about
// 280 of them the observed plan execute); the Concat/Slice path it replaced
// cost 735.
func TestBatchedPredictAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	const n = 8
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m := loadReady(t, reg, "mobilenet", store, ModelOptions{Backend: "node", Batching: wholeBatches(n)})
	api := NewServer(reg)
	defer api.Close()
	batch := make([]Instance, n)
	for i := range batch {
		batch[i] = testImage(96, i)
	}
	for i := 0; i < 3; i++ { // warm-up: pool fill, plan caches, the slab
		predictAll(t, m, batch)
	}
	allocs := testing.AllocsPerRun(10, func() { predictAll(t, m, batch) })
	t.Logf("batch of %d Model.Predict behind NewServer: %.0f allocs/op (%.1f per item)", n, allocs, allocs/n)
	if allocs > 470 {
		t.Fatalf("a batch of %d allocates %.0f/op, budget 470: bytes are being moved by something other than two copies", n, allocs)
	}
}
