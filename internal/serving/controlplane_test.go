package serving

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// postJSON posts a predict body and returns status and response body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data
}

// TestReplicasAnswerLightTrafficAtOnce: a pool of two replicas has two
// workers, and two concurrent predicts can land one on each, as two
// batches of one. Neither may wait out the 2 s BatchTimeout: nothing
// runnable is about to join it. While gather slept on a timer, each such
// pair took the whole BatchTimeout (300–310 ms at 300 ms).
func TestReplicasAnswerLightTrafficAtOnce(t *testing.T) {
	store := buildMobileNetStore(t, 32, 6)
	reg := NewRegistry()
	defer reg.Close()
	m := loadReady(t, reg, "m", store, ModelOptions{
		Backend: "node", Replicas: 2, Batching: Config{MaxBatchSize: 2, BatchTimeout: 2 * time.Second},
	})
	insts := []Instance{testImage(32, 0), testImage(32, 1)}
	for _, inst := range insts { // one warm-up predict per replica: the pool takes them in turn
		if _, err := m.Predict(context.Background(), inst); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		start := time.Now()
		predictAll(t, m, insts)
		if took := time.Since(start); took > 200*time.Millisecond {
			t.Fatalf("two concurrent predicts on two replicas took %v, want under 200ms", took)
		}
	}
}

// TestReplicaPoolOverlap proves the replica router delivers real
// concurrency: two 100ms predicts against a 2-replica pool must overlap
// in time (serialized execution would take ≥200ms), and the work must
// land on both replicas.
func TestReplicaPoolOverlap(t *testing.T) {
	const hold = 100 * time.Millisecond
	slow := runnerFunc(func(batch []Instance) ([]Instance, error) {
		time.Sleep(hold)
		return batch, nil
	})
	p := &pool{replicas: []*replica{{id: 0, run: slow}, {id: 1, run: slow}}}
	m := stubModel("par", Config{MaxBatchSize: 1, QueueSize: 8, Workers: 2}, p)
	defer m.unload()

	inst := Instance{Values: []float32{1}, Shape: []int{1}}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Predict(context.Background(), inst); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed >= 2*hold {
		t.Fatalf("two predicts on a 2-replica pool serialized: %v", elapsed)
	}
	snaps := p.snapshots()
	total := int64(0)
	for _, s := range snaps {
		total += s.Batches
	}
	if total != 2 {
		t.Fatalf("pool executed %d batches, want 2 (%+v)", total, snaps)
	}
	for _, s := range snaps {
		if s.Batches != 1 {
			t.Fatalf("least-loaded routing did not spread the batches: %+v", snaps)
		}
	}
}

// TestRegistryChurnUnderLoad unloads a model and installs a new one under
// the same name while concurrent predicts look it up and run — the -race
// soak for the registry.
func TestRegistryChurnUnderLoad(t *testing.T) {
	reg := NewRegistry()
	churn := func() *Model {
		return stubModel("churn", Config{MaxBatchSize: 4, Workers: 2, QueueSize: 256}, runnerFunc(echoRunner))
	}
	reg.install(churn())
	defer reg.Close()

	inst := Instance{Values: []float32{1}, Shape: []int{1}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, ok := reg.Get("churn")
				if !ok {
					continue // between an unload and the next install
				}
				// Unloaded-under-us is acceptable; panics and races are not.
				_, _ = m.Predict(context.Background(), inst)
			}
		}()
	}

	for i := 1; i <= 25; i++ {
		if err := reg.Unload("churn"); err != nil {
			t.Fatalf("unload %d: %v", i, err)
		}
		reg.install(churn())
	}
	close(stop)
	wg.Wait()

	if names := reg.Names(); !slices.Equal(names, []string{"churn"}) {
		t.Fatalf("registry names = %v, want [churn]", names)
	}
}

// TestReadyzAndDrain covers the readiness endpoint and graceful drain:
// /readyz turns 503 during drain and predicts are refused while health
// stays up.
func TestReadyzAndDrain(t *testing.T) {
	reg := NewRegistry()
	m := stubModel("drainme", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 8}, runnerFunc(echoRunner))
	defer m.unload()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz before drain: %d %q", code, body)
	}

	api.BeginDrain()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz during drain: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatal("liveness must stay up during drain")
	}
	code, data := postJSON(t, srv.URL+"/v1/models/drainme:predict", `{"instances": [[1]]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("predict during drain: status %d (%s), want 503", code, data)
	}

	// A registry with a still-loading model is not ready either.
	reg2 := NewRegistry()
	loading := &Model{
		name: "later", backend: "cpu", cfg: Config{}.withDefaults(),
		metrics: NewMetrics(), state: StateLoading, ready: make(chan struct{}),
	}
	reg2.install(loading)
	api2 := NewServer(reg2)
	defer api2.Close()
	srv2 := httptest.NewServer(api2)
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with loading model: %d, want 503", resp.StatusCode)
	}
}

// TestShedErrorContract pins the error-wrapping semantics the HTTP layer
// and metrics labels rely on.
func TestShedErrorContract(t *testing.T) {
	qf := &ShedError{RetryAfter: time.Second}
	if !errors.Is(qf, ErrQueueFull) {
		t.Fatal("ShedError must unwrap to ErrQueueFull")
	}
	if outcomeLabel(qf) != "queue_full" {
		t.Fatalf("queue_full label = %q", outcomeLabel(qf))
	}
	if statusFor(qf) != http.StatusTooManyRequests {
		t.Fatalf("queue_full status = %d, want 429", statusFor(qf))
	}
}

// TestRetryAfterHint pins the backoff a shed request is told to take: the
// execute stage's p50 (one sample per completed batch execute) times the
// batches queued ahead, 50 ms assumed before the first execute, clamped to
// [100 ms, 5 s].
func TestRetryAfterHint(t *testing.T) {
	warm := func() *Metrics {
		m := NewMetrics()
		for _, ms := range []float64{10, 40, 400} { // p50 40, mean 150
			m.ObserveStage("execute", ms)
		}
		return m
	}
	cases := []struct {
		name              string
		m                 *Metrics
		queueDepth, batch int
		want              time.Duration
	}{
		{"cold: the 50 ms default, lifted to the floor", NewMetrics(), 0, 16, 100 * time.Millisecond},
		{"cold: the 50 ms default times three batches", NewMetrics(), 32, 16, 150 * time.Millisecond},
		{"warm: p50 times the batches ahead", warm(), 40, 16, 120 * time.Millisecond},
		{"warm: a batch size below one counts as one", warm(), 2, 0, 120 * time.Millisecond},
		{"deep queue: clamped to the ceiling", warm(), 4096, 16, 5 * time.Second},
	}
	for _, c := range cases {
		if got := retryAfterHint(c.m, c.queueDepth, c.batch); got != c.want {
			t.Errorf("%s: retryAfterHint(depth %d, batch %d) = %v, want %v", c.name, c.queueDepth, c.batch, got, c.want)
		}
	}
}
