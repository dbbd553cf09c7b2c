package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/native"
	"repro/internal/savedmodel"
	"repro/internal/telemetry"
	"repro/internal/webgl"
)

func init() {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	e.RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
	e.RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })
}

// buildMobileNetStore converts a MobileNet-sized synthetic model into an
// in-memory artifact store — the §5.1 pipeline the server consumes.
func buildMobileNetStore(t testing.TB, inputSize, classes int) *converter.MemStore {
	t.Helper()
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: inputSize, NumClasses: classes, IncludeTop: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	g, err := savedmodel.FromSequential(model, true)
	if err != nil {
		t.Fatal(err)
	}
	store := converter.NewMemStore()
	if _, err := converter.Convert(g, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}
	return store
}

// stubModel builds a ready Model around an arbitrary runner, bypassing
// artifact loading (white-box scheduler/HTTP tests).
func stubModel(name string, cfg Config, run runner) *Model {
	m := &Model{
		name:    name,
		backend: "cpu",
		cfg:     cfg.withDefaults(),
		metrics: NewMetrics(),
		state:   StateReady,
		ready:   make(chan struct{}),
	}
	close(m.ready)
	m.sched = newScheduler(m.cfg, name, run, m.metrics)
	return m
}

// echoRunner returns each instance unchanged.
func echoRunner(batch []Instance) ([]Instance, error) { return batch, nil }

// TestServeEndToEnd is the acceptance scenario: a converted
// MobileNet-sized model in a MemStore, served on a loopback listener,
// hit with ≥32 concurrent JSON predict requests. All must succeed with
// the right output shape, and the batch-size histogram must record
// batches > 1.
func TestServeEndToEnd(t *testing.T) {
	const classes = 10
	store := buildMobileNetStore(t, 96, classes)

	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mobilenet", store, ModelOptions{
		Backend: "node",
		Batching: Config{
			MaxBatchSize: 8,
			BatchTimeout: 20 * time.Millisecond,
			QueueSize:    64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	// One shared instance payload: a [96,96,3] image.
	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	for i := range img.Values {
		img.Values[i] = float32(i%255) / 255
	}
	body, err := json.Marshal(map[string]any{"instances": []any{img.Render()}})
	if err != nil {
		t.Fatal(err)
	}

	const concurrent = 32
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/models/mobilenet:predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var out struct {
				Predictions [][]float64 `json:"predictions"`
			}
			if err := json.Unmarshal(data, &out); err != nil {
				errs <- fmt.Errorf("bad response %s: %v", data, err)
				return
			}
			if len(out.Predictions) != 1 || len(out.Predictions[0]) != classes {
				errs <- fmt.Errorf("prediction shape: got %d x %d, want 1 x %d",
					len(out.Predictions), len(out.Predictions[0]), classes)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	if got := m.Metrics().Requests("ok"); got != concurrent {
		t.Errorf("ok requests = %d, want %d", got, concurrent)
	}
	if max := m.Metrics().MaxBatchObserved(); max <= 1 {
		t.Errorf("max observed batch = %d; micro-batching never coalesced", max)
	}

	// Readiness + listing endpoints.
	for _, check := range []struct {
		path string
		want string
	}{
		{"/v1/models", `"mobilenet"`},
		{"/v1/models/mobilenet", `"ready":true`},
		{"/healthz", "ok"},
		{"/metrics", `serving_requests_total{model="mobilenet",outcome="ok"} 32`},
	} {
		resp, err := http.Get(srv.URL + check.path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", check.path, resp.StatusCode)
		}
		if !strings.Contains(string(data), check.want) {
			t.Errorf("GET %s: response %q does not contain %q", check.path, data, check.want)
		}
	}

	// The metrics endpoint must report engine allocation state.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"engine_num_tensors", "engine_num_bytes", "serving_batch_size_total", "serving_request_latency_ms"} {
		if !strings.Contains(string(data), metric) {
			t.Errorf("/metrics missing %s:\n%s", metric, data)
		}
	}
}

// TestQueueFullReturns429 verifies backpressure: with a single stuck
// worker and a queue of one, the next request fails fast with 429 rather
// than blocking forever.
func TestQueueFullReturns429(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		entered <- struct{}{}
		<-block
		return batch, nil
	})
	m := stubModel("stuck", Config{MaxBatchSize: 1, QueueSize: 1, Workers: 1}, run)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)

	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	inst := Instance{Values: []float32{1}, Shape: []int{1}}
	var wg sync.WaitGroup
	// First request occupies the worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Predict(context.Background(), inst)
	}()
	<-entered
	// Second request fills the queue (cap 1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Predict(context.Background(), inst)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request must bounce with 429 immediately.
	body := `{"instances": [[1]]}`
	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/models/stuck:predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("429 took %v; backpressure must not block", elapsed)
	}
	// Nothing executed yet: 50 ms assumed for the one batch ahead, lifted
	// to the 100 ms floor and rounded up to whole seconds.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if got := m.Metrics().Requests("queue_full"); got == 0 {
		t.Error("queue_full outcome not recorded")
	}
	close(block)
	wg.Wait()
}

// TestNotReadyAndNotFound covers the 503 and 404 paths.
func TestNotReadyAndNotFound(t *testing.T) {
	reg := NewRegistry()
	loading := &Model{
		name: "slow", backend: "cpu", cfg: Config{}.withDefaults(),
		metrics: NewMetrics(), state: StateLoading, ready: make(chan struct{}),
	}
	reg.install(loading)

	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/models/slow:predict", "application/json", strings.NewReader(`{"instances": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("loading model predict: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/models/slow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("loading model status: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/models/ghost:predict", "application/json", strings.NewReader(`{"instances": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}
}

// TestLayersModelServing loads a layers-format artifact store and serves
// it through the same registry.
func TestLayersModelServing(t *testing.T) {
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 5, IncludeTop: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	store := converter.NewMemStore()
	if _, err := converter.SaveLayersModel(model, store, converter.Options{}); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("layers", store, ModelOptions{Backend: "node"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Status().Format != "layers-model" {
		t.Errorf("format = %q, want layers-model", m.Status().Format)
	}

	inst := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	out, err := m.Predict(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Shape) != 1 || out.Shape[0] != 5 {
		t.Errorf("output shape %v, want [5]", out.Shape)
	}
}

// TestUnload removes a model and verifies subsequent requests 404.
func TestUnload(t *testing.T) {
	m := stubModel("gone", Config{}, runnerFunc(echoRunner))
	reg := NewRegistry()
	reg.install(m)

	if err := reg.Unload("gone"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unload("gone"); err != ErrNotFound {
		t.Errorf("double unload: %v, want ErrNotFound", err)
	}
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/models/gone:predict", "application/json", strings.NewReader(`{"instances": [1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestRequestTimeout verifies deadline propagation: a stuck model must
// not hold requests past their context deadline.
func TestRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		<-block
		return batch, nil
	})
	m := stubModel("stuck", Config{MaxBatchSize: 1, QueueSize: 8}, run)
	defer m.unload()
	// LIFO: unblock the runner before unload's Close waits on the worker.
	defer close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.Predict(ctx, Instance{Values: []float32{1}, Shape: []int{1}})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
	if statusFor(err) != http.StatusGatewayTimeout {
		t.Errorf("statusFor(DeadlineExceeded) = %d, want 504", statusFor(err))
	}
}

// TestServerSideRequestTimeout: a caller whose context has no deadline is
// bounded by Config.RequestTimeout. A request stuck in a runner that never
// answers returns DeadlineExceeded (504), and one that waited out its
// deadline in the queue is answered at admission without reaching the
// runner.
func TestServerSideRequestTimeout(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{}, 1)
	var mu sync.Mutex
	var served []float32
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		mu.Lock()
		served = append(served, batch[0].Values[0])
		mu.Unlock()
		if batch[0].Values[0] == 1 {
			entered <- struct{}{}
			<-block
		}
		return batch, nil
	})
	m := stubModel("stuck", Config{MaxBatchSize: 1, QueueSize: 8, RequestTimeout: 50 * time.Millisecond}, run)
	defer m.unload()

	errs := make(chan error, 2)
	start := time.Now()
	predict := func(v float32) {
		_, err := m.Predict(context.Background(), Instance{Values: []float32{v}, Shape: []int{1}})
		errs <- err
	}
	go predict(1) // sticks in the runner
	<-entered
	go predict(2) // waits behind it in the queue
	for i := 0; i < 2; i++ {
		if err := <-errs; err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		} else if statusFor(err) != http.StatusGatewayTimeout {
			t.Errorf("statusFor(%v) = %d, want 504", err, statusFor(err))
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("server-side timeout took %v", elapsed)
	}

	close(block)
	out, err := m.Predict(context.Background(), Instance{Values: []float32{3}, Shape: []int{1}})
	if err != nil || out.Values[0] != 3 {
		t.Fatalf("predict after the stuck batch = %v, %v; want [3]", out.Values, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(served, []float32{1, 3}) {
		t.Errorf("runner served %v, want [1 3]: the request past its deadline in the queue was executed", served)
	}
}

// TestCancelledRequestIsNotRecycled: a scheduler reuses a request once its
// Submit received the reply. One whose submitter gave up while it was
// queued is answered later, into a channel nobody reads; were it reused,
// the next Submit would receive that stale answer. Each later Submit must
// get its own result.
func TestCancelledRequestIsNotRecycled(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{}, 1)
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		if batch[0].Values[0] == 1 {
			entered <- struct{}{}
			<-block
		}
		return batch, nil
	})
	m := stubModel("cancel", Config{MaxBatchSize: 1, QueueSize: 8}, run)
	defer m.unload()

	first := make(chan error, 1)
	go func() {
		_, err := m.Predict(context.Background(), Instance{Values: []float32{1}, Shape: []int{1}})
		first <- err
	}()
	<-entered // the worker holds 1, stuck in the runner
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := m.Predict(ctx, Instance{Values: []float32{2}, Shape: []int{1}})
		cancelled <- err
	}()
	for m.sched.QueueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelled; err != context.Canceled {
		t.Fatalf("cancelled predict: err = %v, want Canceled", err)
	}
	close(block)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for m.sched.QueueDepth() != 0 { // the worker answers the cancelled request
		time.Sleep(time.Millisecond)
	}
	for v := float32(3); v < 8; v++ {
		out, err := m.Predict(context.Background(), Instance{Values: []float32{v}, Shape: []int{1}})
		if err != nil || len(out.Values) != 1 || out.Values[0] != v {
			t.Fatalf("predict %v after a cancellation = %v, %v; want its own result", v, out.Values, err)
		}
	}
}

// TestLoneRequestIsNotHeld: a lone request on an idle scheduler is
// answered at once, not after BatchTimeout: nothing runnable is about to
// join its batch.
func TestLoneRequestIsNotHeld(t *testing.T) {
	m := stubModel("lone", Config{MaxBatchSize: 8, BatchTimeout: 20 * time.Second}, runnerFunc(echoRunner))
	defer m.unload()
	start := time.Now()
	if _, err := m.Predict(context.Background(), Instance{Values: []float32{1, 2}, Shape: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a lone request took %v under a 20s BatchTimeout, want under 1s", took)
	}
}

// TestBatchTimeoutCapsAFedBatch: BatchTimeout bounds a batch that requests
// keep joining. A feeder queues a request whenever the queue is empty and
// yields, so each of gather's yields brings one, and MaxBatchSize is far
// above what can arrive: only the cap seals the batch. gather returns no
// earlier than BatchTimeout, with more than its first request and fewer
// than MaxBatchSize.
func TestBatchTimeoutCapsAFedBatch(t *testing.T) {
	// One P: the feeder, always runnable, runs at each of gather's yields.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const timeout = 50 * time.Millisecond
	cfg := Config{MaxBatchSize: 1 << 30, BatchTimeout: timeout, QueueSize: 1}.withDefaults()
	s := &scheduler{cfg: cfg, queue: make(chan *request, cfg.QueueSize), stop: make(chan struct{})}
	fed := &request{ctx: context.Background()}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case s.queue <- fed:
			default:
			}
			runtime.Gosched()
		}
	}()
	start := time.Now()
	batch := s.gather(&batcher{}, &request{ctx: context.Background()})
	took := time.Since(start)
	close(stop)
	<-stopped
	t.Logf("gather took %v and sealed a batch of %d", took, len(batch))
	if took < timeout {
		t.Errorf("gather sealed a fed batch after %v, before its %v BatchTimeout", took, timeout)
	}
	if len(batch) < 2 || len(batch) >= cfg.MaxBatchSize {
		t.Errorf("gather sealed a batch of %d, want more than 1 and fewer than %d", len(batch), cfg.MaxBatchSize)
	}
}

// TestObservedSubmitAllocs: a warmed Model.Predict through a stub runner,
// behind NewServer's observers (every stage, batch and request event
// recorded), allocates at most one object: the request, its reply
// channel and timer, the worker's batch and the trace events are reused
// or interned. 18 measured before requests were recycled.
func TestObservedSubmitAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	m := stubModel("submit", Config{}, runnerFunc(echoRunner))
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	inst := Instance{Values: []float32{1, 2}, Shape: []int{2}}
	predict := func() {
		if _, err := m.Predict(context.Background(), inst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		predict()
	}
	allocs := testing.AllocsPerRun(50, predict)
	t.Logf("observed Model.Predict through a stub runner: %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Fatalf("an observed Model.Predict allocates %.2f/op, budget 1: per-request control state is not being reused", allocs)
	}
}

// TestLoadFailure surfaces converter errors through WaitReady and status.
func TestLoadFailure(t *testing.T) {
	store := converter.NewMemStore() // no model.json
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("broken", store, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitReady(context.Background()); err == nil {
		t.Fatal("WaitReady on a broken store: want error")
	}
	st := m.Status()
	if st.State != "failed" || st.Error == "" {
		t.Errorf("status = %+v, want failed with error", st)
	}
}

// TestLoadRefusesUnreachableNames: a model name is the {name} of
// /v1/models/{name}[:verb], so Load refuses one that is empty or holds a
// '/' (every such path is a 404) or a ':' (its status GET parses as a
// verb). Any other name, '@' included, is served under exactly that name.
func TestLoadRefusesUnreachableNames(t *testing.T) {
	for _, name := range []string{"", "a/b", "/a", "a:b", "a:predict"} {
		reg := NewRegistry()
		if _, err := reg.Load(name, converter.NewMemStore(), ModelOptions{}); err == nil {
			t.Errorf("Load(%q) succeeded; no URL reaches that name", name)
		}
		if names := reg.Names(); len(names) != 0 {
			t.Errorf("after Load(%q) the registry lists %q", name, names)
		}
		reg.Close()
	}

	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("clf@v2", converter.NewMemStore(), ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.WaitReady(context.Background()) // an empty store: the load fails
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/models/clf@v2")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || st.Name != "clf@v2" || st.State != "failed" {
		t.Errorf("GET /v1/models/clf@v2: %d %+v (%v), want 503 with the failed model's status", resp.StatusCode, st, err)
	}
}

// TestTraceAndKernelBreakdown exercises the telemetry-backed surfaces: a
// predict request must populate per-model per-kernel series on /metrics
// that agree with the server's stats aggregator, and /debug/trace must
// download schema-valid Chrome trace JSON containing kernel events.
func TestTraceAndKernelBreakdown(t *testing.T) {
	store := buildMobileNetStore(t, 96, 10)
	reg := NewRegistry()
	defer reg.Close()
	m, err := reg.Load("mnet", store, ModelOptions{Backend: "node"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	img := Instance{Values: make([]float32, 96*96*3), Shape: []int{96, 96, 3}}
	body, err := json.Marshal(map[string]any{"instances": []any{img.Render()}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/models/mnet:predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}

	// /metrics carries the per-model kernel breakdown, and every rendered
	// line agrees with the stats aggregator by construction.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `serving_kernel_invocations_total{model="mnet"`) {
		t.Fatalf("/metrics missing per-model kernel series:\n%.2000s", metrics)
	}
	// The stage series cover the request's whole budget, wire codec
	// included.
	for _, stage := range []string{"decode", "queue_wait", "gather", "execute", "split", "encode"} {
		if series := fmt.Sprintf("serving_stage_latency_ms{model=%q,stage=%q,", "mnet", stage); !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s…} after one HTTP predict", series)
		}
	}
	agreed := 0
	for _, span := range api.Stats().Spans() {
		if modelOfSpan(span) != "mnet" {
			continue
		}
		for _, ks := range api.Stats().KernelsForSpan(span) {
			line := fmt.Sprintf("serving_kernel_invocations_total{model=%q,kernel=%q} %d\n", "mnet", ks.Name, ks.Count)
			if !strings.Contains(string(metrics), line) {
				t.Errorf("/metrics disagrees with aggregator: missing %q", strings.TrimSpace(line))
			}
			agreed++
		}
	}
	if agreed == 0 {
		t.Fatalf("no kernels attributed to span of model mnet; spans: %v", api.Stats().Spans())
	}

	// /debug/trace downloads schema-valid Chrome trace JSON with kernel
	// events inside.
	resp, err = http.Get(srv.URL + "/debug/trace?seconds=120")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d", resp.StatusCode)
	}
	if err := telemetry.ValidateChromeTrace(trace); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	if !strings.Contains(string(trace), `"cat":"kernel"`) {
		t.Errorf("trace has no kernel events:\n%.500s", trace)
	}

	// Malformed window → 400.
	resp, err = http.Get(srv.URL + "/debug/trace?seconds=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seconds: status %d, want 400", resp.StatusCode)
	}
}
