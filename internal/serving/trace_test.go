package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestRequestFlowFanIn is the tracing acceptance scenario: concurrent
// predict requests coalesce into one batch, and the downloaded trace
// must contain flow events linking at least two request spans (ph "s",
// distinct ids) into the batched execution (matching ph "f" events bound
// to the batch slice), all schema-valid. It also checks the X-Request-ID
// contract: inbound IDs are honored and echoed, and the same ID tags the
// request's events in the trace.
func TestRequestFlowFanIn(t *testing.T) {
	// A runner slow enough that requests queue behind the first batch:
	// an under-full batch leaves as soon as nothing runnable is about to
	// join it, so the execute is the window in which the others arrive.
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		time.Sleep(20 * time.Millisecond)
		return batch, nil
	})
	m := stubModel("flow", Config{MaxBatchSize: 8, BatchTimeout: 50 * time.Millisecond, Workers: 1}, run)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)

	api := NewServer(reg) // registers the trace recorder → hub active
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Fire concurrent requests; the ones that arrive while the first
	// batch executes share the next one.
	const clients = 4
	var wg sync.WaitGroup
	echoed := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/models/flow:predict",
				strings.NewReader(`{"instances": [[1, 2]]}`))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", "client-"+string(rune('a'+i)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("predict status %d", resp.StatusCode)
			}
			echoed[i] = resp.Header.Get("X-Request-ID")
		}(i)
	}
	wg.Wait()
	for i, id := range echoed {
		if want := "client-" + string(rune('a'+i)); id != want {
			t.Errorf("response %d echoed X-Request-ID %q, want %q", i, id, want)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.ValidateChromeTrace(trace); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}

	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			ID    string         `json:"id"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &parsed); err != nil {
		t.Fatal(err)
	}
	starts := map[string]bool{}
	finishes := map[string]bool{}
	traceIDs := map[string]bool{}
	maxBatch := 0.0
	for _, te := range parsed.TraceEvents {
		switch te.Phase {
		case "s":
			starts[te.ID] = true
		case "f":
			finishes[te.ID] = true
		}
		if te.Cat == "request" {
			if id, _ := te.Args["trace"].(string); id != "" {
				traceIDs[id] = true
			}
		}
		if te.Name == "batch" && te.Phase == "X" {
			if size, ok := te.Args["batch_size"].(float64); ok && size > maxBatch {
				maxBatch = size
			}
		}
	}
	linked := 0
	for id := range starts {
		if finishes[id] {
			linked++
		}
	}
	if linked < 2 {
		t.Errorf("only %d request flows link into a batch, want >= 2 (starts %d, finishes %d)",
			linked, len(starts), len(finishes))
	}
	if maxBatch < 2 {
		t.Errorf("largest traced batch = %.0f, want >= 2 (fan-in not captured)", maxBatch)
	}
	for i := 0; i < clients; i++ {
		if want := "client-" + string(rune('a'+i)); !traceIDs[want] {
			t.Errorf("trace has no request span tagged %q; tagged: %v", want, traceIDs)
		}
	}
}

// TestQueueRejectedCounter verifies the rejection satellite: a submit
// bounced by a full queue increments the per-model counter and surfaces
// as serving_queue_rejected_total in /metrics.
func TestQueueRejectedCounter(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		entered <- struct{}{}
		<-block
		return batch, nil
	})
	m := stubModel("rej", Config{MaxBatchSize: 1, QueueSize: 1, Workers: 1}, run)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)

	inst := Instance{Values: []float32{1}, Shape: []int{1}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = m.Predict(context.Background(), inst) }()
	<-entered // worker is stuck in the runner
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = m.Predict(context.Background(), inst) }()
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := m.Predict(context.Background(), inst); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	if got := m.Metrics().Rejected(); got != 1 {
		t.Errorf("Rejected() = %d, want 1", got)
	}

	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `serving_queue_rejected_total{model="rej"} 1`) {
		t.Errorf("/metrics missing rejection counter:\n%.1500s", metrics)
	}
	close(block)
	wg.Wait()
}

// TestGatherDropsAbandonedRequests verifies the ctx.Err() satellite: a
// request whose submitter gave up while it sat in the queue is answered
// and discarded at batch admission — the runner never sees it.
func TestGatherDropsAbandonedRequests(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	var mu sync.Mutex
	var seen []float32
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		mu.Lock()
		for _, in := range batch {
			seen = append(seen, in.Values[0])
		}
		mu.Unlock()
		entered <- struct{}{}
		<-block
		return batch, nil
	})
	m := stubModel("drop", Config{MaxBatchSize: 1, QueueSize: 4, Workers: 1}, run)
	defer m.unload()

	// Request 1 occupies the worker inside the runner.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Predict(context.Background(), Instance{Values: []float32{1}, Shape: []int{1}})
	}()
	<-entered

	// Request 2 queues behind it, then its client gives up.
	ctx2, cancel2 := context.WithCancel(context.Background())
	wg.Add(1)
	errs := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := m.Predict(ctx2, Instance{Values: []float32{2}, Shape: []int{1}})
		errs <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel2()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("abandoned submit returned %v, want context.Canceled", err)
	}

	// Request 3 arrives after; once the worker unblocks it must execute
	// request 3 but never request 2.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Predict(context.Background(), Instance{Values: []float32{3}, Shape: []int{1}})
	}()
	close(block)
	select {
	case <-entered: // request 3 reached the runner
	case <-time.After(5 * time.Second):
		t.Fatal("third request never executed")
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, v := range seen {
		if v == 2 {
			t.Fatalf("abandoned request reached the runner: executed %v", seen)
		}
	}
	want := map[float32]bool{1: false, 3: false}
	for _, v := range seen {
		want[v] = true
	}
	if !want[1] || !want[3] {
		t.Fatalf("live requests not all executed: %v", seen)
	}
}

// TestDebugMemoryEndpoint exercises /debug/memory: the plain report
// carries the engine counters and backend name, a leak-capture window
// returns a leaks section, and a malformed parameter is a 400.
func TestDebugMemoryEndpoint(t *testing.T) {
	reg := NewRegistry()
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/memory")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/memory status %d", resp.StatusCode)
	}
	var rep struct {
		Backend string `json:"backend"`
		Engine  struct {
			NumTensors int `json:"NumTensors"`
		} `json:"engine"`
		Leaks *json.RawMessage `json:"leaks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing /debug/memory: %v\n%s", err, data)
	}
	if rep.Backend == "" {
		t.Errorf("report has no backend name: %s", data)
	}
	if rep.Leaks != nil {
		t.Errorf("plain report unexpectedly contains a leak capture: %s", data)
	}

	resp, err = http.Get(srv.URL + "/debug/memory?leaks=0.05")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/memory?leaks status %d: %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte(`"leaks"`)) {
		t.Errorf("leak capture response missing leaks section: %s", data)
	}

	resp, err = http.Get(srv.URL + "/debug/memory?leaks=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad leaks parameter: status %d, want 400", resp.StatusCode)
	}
}
