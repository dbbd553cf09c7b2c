package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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
	"repro/internal/layers"
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
// allocations per MobileNet execute; the plan, called as the runner calls
// it (graphmodel.Model.Predict: no feed or output map), costs 4 (measured
// at GOMAXPROCS 1, 2, 4 and 8) with the server's two observers recording 31
// kernel events, whose shapes are interned, not copied, and its split
// kernels taking recycled jobs. It read 5 while the output handle's shape
// was an allocation of its own, 8 (budget 9) while the runner
// called Execute, whose output map (two objects) and second copy of the
// output's shape are the difference, 33 at GOMAXPROCS 2 to 8 while each
// split kernel allocated its job (budget 37), 93 while each event copied
// its shapes (budget 100), 123 while every kernel resolved its call on
// every execute (budget 320, from 278 measured before that).
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
		"FusedConv2D": 14, "FusedDepthwiseConv2dNative": 13, "Mean": 1, "_FusedMatMul": 1, "Softmax": 1,
	} {
		line := fmt.Sprintf("serving_kernel_invocations_total{model=%q,kernel=%q} %d\n", "mobilenet", kernel, count)
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics after one HTTP predict is missing %q", strings.TrimSpace(line))
		}
	}

	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	gm := m.pool.replicas[0].run.(*graphRunner).model
	e := gm.Engine()
	var x *tensor.Tensor
	e.RunExclusive(func() { x = e.MakeTensor(img.Values, []int{1, 96, 96, 3}, tensor.Float32) })
	defer e.RunExclusive(func() { x.Dispose() })
	execute := func() {
		y, err := gm.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		e.RunExclusive(y.Dispose)
	}
	for i := 0; i < 3; i++ { // warm-up: pool fill, plan caches, observer maps
		execute()
	}
	allocs := testing.AllocsPerRun(10, execute)
	t.Logf("observed Model.Predict behind NewServer: %.0f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("observed Model.Predict allocates %.0f/op behind NewServer, budget 4: the served path is not the direct-dispatch plan, kernel events copy their shapes, or split kernels allocate their jobs", allocs)
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
// "layers": a registry serves both as a graph, the layers one lowered at
// load.
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

// replicaMemory samples every replica engine's memory.
func replicaMemory(p *pool) []core.MemoryInfo {
	out := make([]core.MemoryInfo, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.eng.Memory()
	}
	return out
}

// sameReplicaMemory fails unless every replica ran exactly one batch and
// its engine tracks as many tensors and bytes as it did at before.
func sameReplicaMemory(t *testing.T, when string, p *pool, before []core.MemoryInfo) {
	t.Helper()
	for i, r := range p.replicas {
		if n := r.batches.Load(); n != 1 {
			t.Errorf("replica %d ran %d batches, want 1", i, n)
		}
		if after := r.eng.Memory(); after.NumTensors != before[i].NumTensors || after.NumBytes != before[i].NumBytes {
			t.Errorf("replica %d's engine holds %d tensors / %d bytes %s, %d / %d before",
				i, after.NumTensors, after.NumBytes, when, before[i].NumTensors, before[i].NumBytes)
		}
	}
}

// oneAtATime runs every instance as its own batch of one.
func oneAtATime(t *testing.T, run runner, insts []Instance) []Instance {
	t.Helper()
	outs := make([]Instance, len(insts))
	for i := range insts {
		out, err := run.run(insts[i:i+1], nil)
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

	outs, err := run.run(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "batch of 3", outs, want)
	_ = append(outs[0].Values, 42, 42)
	sameBits(t, "after appending to output 0", outs[1:], want[1:])

	short := slices.Clone(batch)
	short[1].Values = short[1].Values[:len(short[1].Values)-1]
	outs, err = run.run(short, nil)
	var opErr *core.OpError
	if !errors.As(err, &opErr) || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("batch with a short instance: error %v (status %d), want a *core.OpError (400)", err, statusFor(err))
	}
	if outs != nil {
		t.Fatalf("batch with a short instance still returned outputs: %v", outs)
	}
	// The slab is reused: the failed batch must leave nothing behind in it.
	outs, err = run.run(batch, nil)
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
// channels where its first convolution takes three) is the op's error for
// its requests and nothing else — the uploaded slab tensor is disposed on
// that path too, on the global engine and on a spawned replica's.
func TestRejectedBatchLeavesNoTensor(t *testing.T) {
	for format, store := range smallStores(t, 32) {
		t.Run(format, func(t *testing.T) {
			for _, replicas := range []int{1, 2} {
				t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
					reg := NewRegistry()
					defer reg.Close()
					p := loadReady(t, reg, "m", store, ModelOptions{Backend: "node", Replicas: replicas}).pool
					before := replicaMemory(p)
					gray := Instance{Values: make([]float32, 32*32*2), Shape: []int{32, 32, 2}}
					for range replicas {
						if outs, err := p.run([]Instance{gray, gray}, nil); statusFor(err) != http.StatusBadRequest {
							t.Fatalf("an RGB model answered two-channel instances with %v, %v; want the op's 400", outs, err)
						}
					}
					sameReplicaMemory(t, "after the rejected batches", p, before)
				})
			}
		})
	}
}

// TestPanickingPlanLeavesNoTensor: a batch whose plan panics (debug mode
// throws on the NaN that 1e30·1e30 − 1e30·1e30 introduces) is the op's 400
// for each of its requests, and the uploaded slab tensor is disposed on
// that path too, on the global engine and on a spawned replica's.
func TestPanickingPlanLeavesNoTensor(t *testing.T) {
	g := &savedmodel.GraphDef{
		Nodes: []savedmodel.NodeDef{
			{Name: "x", Op: "Placeholder", Attrs: map[string]any{"shape": []int{-1, 4}}},
			{Name: "sq", Op: "Mul", Inputs: []string{"x", "x"}},
			{Name: "y", Op: "Sub", Inputs: []string{"sq", "sq"}},
		},
		Inputs: []string{"x"}, Outputs: []string{"y"},
	}
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	insts := []Instance{
		{Values: []float32{1, 2, 3, 4}, Shape: []int{4}},
		{Values: []float32{1e30, 2, 3, 4}, Shape: []int{4}},
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			p := loadReady(t, reg, "m", store, ModelOptions{Backend: "node", Replicas: replicas}).pool
			// Debug mode is the engine's own: a spawned replica does not
			// inherit it.
			for _, r := range p.replicas {
				r.eng.SetDebugMode(true)
				t.Cleanup(func() { r.eng.SetDebugMode(false) })
			}
			// One worker, so each pair of requests is one batch, and the
			// pool hands consecutive batches to its replicas in turn.
			sched := newScheduler(wholeBatches(2).withDefaults(), "m", p, NewMetrics())
			defer sched.Close()
			before := replicaMemory(p)
			for range replicas {
				errs := make([]error, len(insts))
				var wg sync.WaitGroup
				for i := range insts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[i] = sched.Submit(context.Background(), insts[i])
					}()
				}
				wg.Wait()
				for i, err := range errs {
					if code := statusFor(err); code != http.StatusBadRequest {
						t.Errorf("request %d: status %d (%v), want the op's 400", i, code, err)
					}
				}
			}
			sameReplicaMemory(t, "after the panicking batches", p, before)
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
			outs, err := m.sched.run.run(batch, nil)
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
// is checked wherever a runner can be: graph and layers artifacts, the
// native and the webgl backend, one engine and a two-replica pool (each
// batch twice, so both replicas serve one).
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
		{"layers", "node", 1}, {"layers", "node", 2}, {"layers", "webgl", 1}, {"layers", "webgl", 2},
	} {
		t.Run(fmt.Sprintf("%s/%s/replicas%d", tc.format, tc.backend, tc.replicas), func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			run := loadReady(t, reg, "m", stores[tc.format], ModelOptions{Backend: tc.backend, Replicas: tc.replicas}).sched.run
			before := core.Global().Memory()
			want := oneAtATime(t, run, batch)
			for round := 0; round < tc.replicas; round++ {
				outs, err := run.run(batch, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("batch of %d, round %d", n, round), outs, want)
			}
			sameMemory(t, "after serving", before)
		})
	}
}

// sequenceStore is a layers artifact of a sequence model that uses the
// two classes MobileNet does not: Embedding → SimpleRNN (every step's
// state) → SimpleRNN → Dense, over 6 ids from a vocabulary of 9, its
// weights random.
func sequenceStore(t *testing.T) converter.Store {
	t.Helper()
	layers.SetSeed(21)
	m := layers.NewSequential("sequence")
	m.Add(layers.NewEmbedding(layers.EmbeddingConfig{InputDim: 9, OutputDim: 4, InputLength: 6}))
	m.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 5, ReturnSequences: true}))
	m.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 3}))
	m.Add(layers.NewDense(layers.DenseConfig{Units: 4, Activation: "softmax"}))
	defer m.Dispose()
	randomWeights(t, m, 21)
	store := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	return store
}

// randomWeights gives every weight of m values in [-0.5, 0.5): a zero
// initializer (a bias) would hide a term the lowering dropped.
func randomWeights(t *testing.T, m *layers.Sequential, seed int64) {
	t.Helper()
	if err := m.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ws := m.GetWeights()
	for i := range ws {
		ws[i].Values = make([]float32, len(ws[i].Values))
		for j := range ws[i].Values {
			ws[i].Values[j] = rng.Float32() - 0.5
		}
	}
	if err := m.SetWeights(ws); err != nil {
		t.Fatal(err)
	}
}

// TestLayersArtifactServesItsEagerModel: a layers artifact is served as its
// lowered graph — optimized, verified, its fused kernels — so what it serves
// is held to what the same model, weights and backend predict eagerly
// (Sequential.Predict): the MobileNet of smallStores and a sequence model,
// on node and on webgl, every output within 1e-5. The engine's tensor and
// byte counts return to where they were once both are gone.
func TestLayersArtifactServesItsEagerModel(t *testing.T) {
	const side = 32
	images := make([]Instance, 3)
	for i := range images {
		images[i] = testImage(side, i)
	}
	sentences := make([]Instance, 3)
	for i := range sentences {
		sentences[i] = Instance{Values: make([]float32, 6), Shape: []int{6}}
		for j := range sentences[i].Values {
			sentences[i].Values[j] = float32((i*5 + j*2) % 9)
		}
	}
	for _, c := range []struct {
		name  string
		store converter.Store
		batch []Instance
	}{
		{"mobilenet", smallStores(t, side)["layers"], images},
		{"sequence", sequenceStore(t), sentences},
	} {
		for _, backend := range []string{"node", "webgl"} {
			t.Run(c.name+"/"+backend, func(t *testing.T) {
				before := core.Global().Memory()
				reg := NewRegistry()
				served, err := loadReady(t, reg, "m", c.store, ModelOptions{Backend: backend}).sched.run.run(c.batch, nil)
				reg.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := eagerPredict(t, c.store, backend, c.batch)
				for i, out := range served {
					if len(out.Values) != len(want[i]) {
						t.Fatalf("instance %d: %d values served, %d eager", i, len(out.Values), len(want[i]))
					}
					for j, v := range want[i] {
						if d := math.Abs(float64(out.Values[j] - v)); d > 1e-5 {
							t.Fatalf("instance %d value %d: served %g, eager %g (|Δ| %.2g)", i, j, out.Values[j], v, d)
						}
					}
				}
				sameMemory(t, "after serving and predicting", before)
			})
		}
	}
}

// TestSequenceOfAnotherLengthIsRejected: the sequence model's graph unrolls
// its 6 steps, so a sentence of 5 or 7 ids is a client error (400), though
// eager Predict takes either: a graph of 6 steps would serve a longer
// sentence from its first 6 ids.
func TestSequenceOfAnotherLengthIsRejected(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	run := loadReady(t, reg, "m", sequenceStore(t), ModelOptions{Backend: "node"}).sched.run
	for _, n := range []int{5, 7} {
		before := core.Global().Memory()
		sentence := Instance{Values: make([]float32, n), Shape: []int{n}}
		for j := range sentence.Values {
			sentence.Values[j] = float32(j % 9)
		}
		outs, err := run.run([]Instance{sentence}, nil)
		if err == nil {
			t.Errorf("a %d-id sentence was served by a 6-step model: %v", n, outs)
		} else if statusFor(err) != http.StatusBadRequest {
			t.Errorf("a %d-id sentence: status %d, want 400: %v", n, statusFor(err), err)
		}
		sameMemory(t, fmt.Sprintf("after the %d-id sentence", n), before)
	}
}

// TestUnrollableRNNFailsItsLoad: a SimpleRNN whose step count is unknown
// (-1) or 0 builds, and so saves, but has no graph of fixed steps. Loading
// it fails that model, with an error naming the layer; it does not panic
// the server.
func TestUnrollableRNNFailsItsLoad(t *testing.T) {
	for _, steps := range []int{-1, 0} {
		t.Run(fmt.Sprintf("steps%d", steps), func(t *testing.T) {
			m := layers.NewSequential("rnn")
			m.Add(layers.NewSimpleRNN(layers.SimpleRNNConfig{Units: 2, InputShape: []int{steps, 3}, Name: "rnn_any_length"}))
			defer m.Dispose()
			store := converter.NewMemStore()
			if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			defer reg.Close()
			model, err := reg.Load("m", store, ModelOptions{Backend: "node"})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			err = model.WaitReady(ctx)
			if err == nil || !strings.Contains(err.Error(), `"rnn_any_length"`) {
				t.Fatalf("load of a %d-step SimpleRNN: error %v, want one naming the layer", steps, err)
			}
			if st := model.State(); st != StateFailed {
				t.Errorf("state %v after the failed load, want %v", st, StateFailed)
			}
		})
	}
}

// TestHostileLayersTopologyFailsItsLoad: a layers artifact whose Dense has
// 0 units fails that model's load, with an error naming the layer. The
// layer's constructor used to panic on the registry's load goroutine, and
// so take the server down.
func TestHostileLayersTopologyFailsItsLoad(t *testing.T) {
	m := layers.NewSequential("hostile")
	m.Add(layers.NewDense(layers.DenseConfig{Units: 2, InputShape: []int{3}, Name: "dense_hostile"}))
	defer m.Dispose()
	store := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(m, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Read("model.json")
	if err != nil {
		t.Fatal(err)
	}
	hostile := bytes.Replace(raw, []byte(`"units": 2`), []byte(`"units": 0`), 1)
	if bytes.Equal(hostile, raw) {
		t.Fatal("model.json has no units to edit")
	}
	if err := store.Write("model.json", hostile); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	defer reg.Close()
	model, err := reg.Load("m", store, ModelOptions{Backend: "node"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = model.WaitReady(ctx)
	if err == nil || !strings.Contains(err.Error(), `"dense_hostile"`) {
		t.Fatalf("load of a Dense of 0 units: error %v, want one naming the layer", err)
	}
	if st := model.State(); st != StateFailed {
		t.Errorf("state %v after the failed load, want %v", st, StateFailed)
	}
}

// TestNonIntegralIdIsRejected: an id names a row of the Embedding's table,
// so a sentence holding one that is not a whole number (2.7, -0.5) is a
// client error (400). It used to be served the rows of its ids truncated.
func TestNonIntegralIdIsRejected(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	run := loadReady(t, reg, "m", sequenceStore(t), ModelOptions{Backend: "node"}).sched.run
	for _, ids := range [][]float32{{2.7, 1.2, 0.9, 3.5, 4.99, 5.1}, {2, 1, 0, -0.5, 4, 5}} {
		before := core.Global().Memory()
		outs, err := run.run([]Instance{{Values: ids, Shape: []int{6}}}, nil)
		if err == nil {
			t.Errorf("ids %v were served: %v", ids, outs)
		} else if statusFor(err) != http.StatusBadRequest {
			t.Errorf("ids %v: status %d, want 400: %v", ids, statusFor(err), err)
		}
		sameMemory(t, fmt.Sprintf("after ids %v", ids), before)
	}
}

// eagerPredict loads the layers artifact in store on the global engine
// and predicts batch eagerly on backend, returning each instance's row.
func eagerPredict(t *testing.T, store converter.Store, backend string, batch []Instance) [][]float32 {
	t.Helper()
	e := core.Global()
	var rows [][]float32
	var err error
	e.RunExclusive(func() {
		if err = e.SetBackend(backend); err != nil {
			return
		}
		var m *layers.Sequential
		if m, err = converter.LoadLayersModel(store); err != nil {
			return
		}
		defer m.Dispose()
		var flat []float32
		for _, in := range batch {
			flat = append(flat, in.Values...)
		}
		x := e.MakeTensor(flat, append([]int{len(batch)}, batch[0].Shape...), tensor.Float32)
		defer x.Dispose()
		y := m.Predict(x)
		defer y.Dispose()
		vals, row := y.DataSync(), y.Size()/len(batch)
		for i := range batch {
			rows = append(rows, vals[i*row:(i+1)*row])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReplicasReportTheLoadedPool: every served model is a replica pool,
// and Model.Replicas, Status and the per-replica snapshots read that pool.
// A layers artifact asked for four replicas serves four, as a graph does
// (it served one while it predicted eagerly); a graph model of one replica
// keeps its Status JSON free of a replica count and reports its replica's
// gauges. Unloading frees every replica's weights.
func TestReplicasReportTheLoadedPool(t *testing.T) {
	stores := smallStores(t, 32)
	for _, tc := range []struct {
		format         string
		asked, serving int
	}{
		{"layers", 4, 4}, {"graph", 0, 1}, {"graph", 2, 2},
	} {
		t.Run(fmt.Sprintf("%s/replicas%d", tc.format, tc.asked), func(t *testing.T) {
			before := core.Global().Memory()
			reg := NewRegistry()
			m := loadReady(t, reg, "m", stores[tc.format], ModelOptions{Backend: "node", Replicas: tc.asked})
			if got := m.Replicas(); got != tc.serving {
				t.Errorf("Replicas() = %d, want %d", got, tc.serving)
			}
			status, err := json.Marshal(m.Status())
			if err != nil {
				t.Fatal(err)
			}
			if hasCount := strings.Contains(string(status), `"replicas"`); hasCount != (tc.serving > 1) {
				t.Errorf("Status JSON %s: replica count present %v, want %v", status, hasCount, tc.serving > 1)
			}
			if st := m.Status(); tc.serving > 1 && st.Replicas != tc.serving {
				t.Errorf("Status.Replicas = %d, want %d", st.Replicas, tc.serving)
			}
			if snaps := reg.Snapshots()["m"].Replicas; len(snaps) != tc.serving {
				t.Errorf("%d replica snapshots, want %d", len(snaps), tc.serving)
			}
			reg.Close()
			sameMemory(t, "after unload", before)
		})
	}
}

// TestBatchedPredictAllocBudget: what a batch of eight costs the heap end
// to end — eight Model.Predict calls, the scheduler, the slab, one plan
// execute, one read-back — behind NewServer's observers. 20 measured at
// GOMAXPROCS 1, 2, 4 and 8, once a tensor handle and its shape were one
// object (the slab's and the output's); 22 once the runner kept its slab
// shape and result slice and called the plan without feed or output maps;
// 29 before that
// (budget 65), 57 at GOMAXPROCS 2 to 8 (33 of them the observed plan
// execute) once kernel events interned their shapes and the scheduler
// recycled its requests and batch scratch; 210 before that (budget 225),
// 240 while every kernel resolved its call on every execute (budget 470,
// from 407 measured before that); the Concat/Slice path it replaced cost
// 735.
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
	if allocs > 20 {
		t.Fatalf("a batch of %d allocates %.0f/op, budget 20: bytes are being moved by something other than two copies, or per-request state is allocated again", n, allocs)
	}
}

// TestServedBatchSizesResolveOnce: a served plan runs batches of 1 to 16
// rows, so a step's input shapes change from one execute to the next, and
// the node backend's memo keeps the resolved calls of every batch size
// (kernels.MemoCap). After one round of every size, a second round
// resolves nothing.
func TestServedBatchSizesResolveOnce(t *testing.T) {
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m := loadReady(t, reg, "mobilenet", store, ModelOptions{Backend: "node"})
	run := m.pool.replicas[0].run
	round := func() {
		for n := 1; n <= 16; n++ {
			batch := make([]Instance, n)
			for i := range batch {
				batch[i] = testImage(96, i)
			}
			if _, err := run.run(batch, nil); err != nil {
				t.Fatalf("batch of %d: %v", n, err)
			}
		}
	}
	round()
	warmed := resolves(m)
	round()
	t.Logf("batches of 1 to 16: %d calls resolved, then %d", warmed, resolves(m)-warmed)
	if again := resolves(m) - warmed; again != 0 {
		t.Errorf("a second round of batches of 1 to 16 resolved %d calls, want 0", again)
	}
}

// TestKernelEventShapesHold: kernel events carry interned shapes that
// observers keep (the trace ring does). An observer keeps every kernel
// event while a served model runs batches of 1 to 16, twice, and a deep
// copy of each event's shapes as it arrived. Afterwards every kept event
// must still hold the shapes its step ran with: its copy, and an output
// whose leading dimension is its batch's size. An event that borrowed a
// caller's storage (a plan's per-step shape scratch) would be overwritten
// by a later batch and fail here.
func TestKernelEventShapesHold(t *testing.T) {
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m := loadReady(t, reg, "mobilenet", store, ModelOptions{Backend: "node"})
	run := m.pool.replicas[0].run

	type kept struct {
		batch    int
		ev       telemetry.Event
		ins, out [][]int // deep copies, taken as the event arrived
	}
	var mu sync.Mutex
	var events []kept
	batch := 0
	deepCopy := func(shapes [][]int) [][]int {
		out := make([][]int, len(shapes))
		for i, s := range shapes {
			out[i] = slices.Clone(s)
		}
		return out
	}
	remove := core.Global().Telemetry().Register(telemetry.ObserverFunc(func(ev telemetry.Event) {
		if ev.Kind != telemetry.KindKernel {
			return
		}
		mu.Lock()
		events = append(events, kept{batch: batch, ev: ev, ins: deepCopy(ev.InputShapes), out: deepCopy(ev.OutputShapes)})
		mu.Unlock()
	}))
	defer remove()

	for round := 0; round < 2; round++ {
		for n := 1; n <= 16; n++ {
			insts := make([]Instance, n)
			for i := range insts {
				insts[i] = testImage(96, i)
			}
			mu.Lock()
			batch = n
			mu.Unlock()
			if _, err := run.run(insts, nil); err != nil {
				t.Fatalf("batch of %d: %v", n, err)
			}
		}
	}
	remove()

	mu.Lock()
	defer mu.Unlock()
	if want := 2 * 16 * 30; len(events) != want { // 30 kernels an execute
		t.Fatalf("kept %d kernel events over two rounds of batches 1 to 16, want %d", len(events), want)
	}
	bad := 0
	for _, k := range events {
		same := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
		ok := same(k.ev.InputShapes, k.ins) && same(k.ev.OutputShapes, k.out) &&
			len(k.ev.OutputShapes) == 1 && len(k.ev.OutputShapes[0]) > 0 && k.ev.OutputShapes[0][0] == k.batch
		if !ok {
			if bad++; bad <= 5 {
				t.Errorf("%s at batch %d: kept shapes %v -> %v, want %v -> %v with leading dim %d",
					k.ev.Name, k.batch, k.ev.InputShapes, k.ev.OutputShapes, k.ins, k.out, k.batch)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d kept kernel events no longer hold the shapes they ran with", bad, len(events))
	}
}
