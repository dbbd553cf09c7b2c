package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// addRunner returns each instance with delta added to every value.
func addRunner(delta float32) runnerFunc {
	return func(batch []Instance) ([]Instance, error) {
		out := make([]Instance, len(batch))
		for i, in := range batch {
			vals := make([]float32, len(in.Values))
			for j, v := range in.Values {
				vals[j] = v + delta
			}
			out[i] = Instance{Values: vals, Shape: in.Shape}
		}
		return out, nil
	}
}

// scaleRunner returns each instance with every value scaled.
func scaleRunner(factor float32) runnerFunc {
	return func(batch []Instance) ([]Instance, error) {
		out := make([]Instance, len(batch))
		for i, in := range batch {
			vals := make([]float32, len(in.Values))
			for j, v := range in.Values {
				vals[j] = v * factor
			}
			out[i] = Instance{Values: vals, Shape: in.Shape}
		}
		return out, nil
	}
}

// postJSON posts a predict body and returns status, response body and
// headers.
func postJSON(t *testing.T, url, body string, headers map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, resp.Header
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

// TestCanarySplit verifies weighted canary routing: with a 90/10 split,
// bare-name traffic reaches both versions in roughly those proportions,
// pinned requests bypass the dice, and the route counters record the
// split.
func TestCanarySplit(t *testing.T) {
	reg := NewRegistry()
	v1 := stubModel("ab@v1", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	v2 := stubModel("ab@v2", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	defer v1.unload()
	defer v2.unload()
	reg.install(v1)
	reg.install(v2)
	if err := reg.SetCanary("ab", "v2", 10); err != nil {
		t.Fatal(err)
	}

	const n = 400
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		res, err := reg.Route("ab")
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Model.Name()]++
	}
	if counts["ab@v2"] == 0 {
		t.Fatal("canary version never routed at 10%")
	}
	if counts["ab@v2"] > n/2 {
		t.Fatalf("canary took %d/%d requests at a 10%% split", counts["ab@v2"], n)
	}
	if counts["ab@v1"] < n/2 {
		t.Fatalf("stable took only %d/%d requests at a 10%% split", counts["ab@v1"], n)
	}
	if got := v2.Metrics().Routes(RouteCanary); got != int64(counts["ab@v2"]) {
		t.Errorf("canary route counter = %d, want %d", got, counts["ab@v2"])
	}
	if got := v1.Metrics().Routes(RouteStable); got != int64(counts["ab@v1"]) {
		t.Errorf("stable route counter = %d, want %d", got, counts["ab@v1"])
	}

	// Pinning bypasses the dice.
	res, err := reg.Route("ab@v2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != v2 || res.Route != RoutePinned {
		t.Fatalf("pinned route = (%s, %s), want (ab@v2, pinned)", res.Model.Name(), res.Route)
	}
}

// TestCanaryOverHTTP is the rollout acceptance scenario end-to-end: two
// versions behind one name with a 90/10 canary; the serving version and
// route ride back on response headers.
func TestCanaryOverHTTP(t *testing.T) {
	reg := NewRegistry()
	v1 := stubModel("web@v1", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	v2 := stubModel("web@v2", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	defer v1.unload()
	defer v2.unload()
	reg.install(v1)
	reg.install(v2)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Configure the 90/10 split through the admin verb.
	code, data, _ := postJSON(t, srv.URL+"/v1/models/web:canary?version=v2&percent=10", "", nil)
	if code != http.StatusOK {
		t.Fatalf("canary verb: status %d: %s", code, data)
	}

	seen := map[string]int{}
	routes := map[string]int{}
	for i := 0; i < 120; i++ {
		code, data, hdr := postJSON(t, srv.URL+"/v1/models/web:predict", `{"instances": [[1]]}`, nil)
		if code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, code, data)
		}
		seen[hdr.Get("X-Serving-Model")]++
		routes[hdr.Get("X-Serving-Route")]++
	}
	if seen["web@v1"] == 0 || seen["web@v2"] == 0 {
		t.Fatalf("canary split did not reach both versions: %v", seen)
	}
	if routes[RouteStable] == 0 || routes[RouteCanary] == 0 {
		t.Fatalf("route headers did not reflect the split: %v", routes)
	}

	// The rollout status endpoint reports the split.
	resp, err := http.Get(srv.URL + "/v1/models/web:rollout")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st RolloutStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("parsing rollout status: %v\n%s", err, data)
	}
	if st.Default != "v1" || st.Canary != "v2" || st.CanaryPercent != 10 {
		t.Fatalf("rollout status = %+v", st)
	}
}

// TestShadowMirrors verifies duplicate-and-discard routing: every
// bare-name request is mirrored to the shadow version, responses come
// only from the primary.
func TestShadowMirrors(t *testing.T) {
	reg := NewRegistry()
	v1 := stubModel("sh@v1", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, addRunner(0))
	v2 := stubModel("sh@v2", Config{MaxBatchSize: 1, Workers: 1, QueueSize: 64}, addRunner(100))
	defer v1.unload()
	defer v2.unload()
	reg.install(v1)
	reg.install(v2)
	if err := reg.SetShadow("sh", "v2"); err != nil {
		t.Fatal(err)
	}
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	const n = 5
	for i := 0; i < n; i++ {
		code, data, hdr := postJSON(t, srv.URL+"/v1/models/sh:predict", `{"instances": [[7]]}`, nil)
		if code != http.StatusOK {
			t.Fatalf("predict: status %d: %s", code, data)
		}
		// The primary echoes 7; the shadow would have returned 107.
		if !bytes.Contains(data, []byte("[7]")) {
			t.Fatalf("response leaked shadow output: %s", data)
		}
		if got := hdr.Get("X-Serving-Model"); got != "sh@v1" {
			t.Fatalf("served by %q, want primary sh@v1", got)
		}
	}

	// Shadow predictions are fire-and-forget; wait for them to land.
	deadline := time.Now().Add(5 * time.Second)
	for v2.Metrics().Requests("ok") != n {
		if time.Now().After(deadline) {
			t.Fatalf("shadow received %d requests, want %d", v2.Metrics().Requests("ok"), n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := v2.Metrics().Routes(RouteShadow); got != n {
		t.Errorf("shadow route counter = %d, want %d", got, n)
	}
}

// TestPromoteHotSwap verifies zero-downtime promotion: under continuous
// bare-name load, promoting a new default loses no requests, and traffic
// flips to the new version. Run with -race this also exercises the
// registry's rollout locking.
func TestPromoteHotSwap(t *testing.T) {
	reg := NewRegistry()
	v1 := stubModel("hot@v1", Config{MaxBatchSize: 4, Workers: 2, QueueSize: 256}, runnerFunc(echoRunner))
	v2 := stubModel("hot@v2", Config{MaxBatchSize: 4, Workers: 2, QueueSize: 256}, runnerFunc(echoRunner))
	defer v1.unload()
	defer v2.unload()
	reg.install(v1)
	reg.install(v2)

	inst := Instance{Values: []float32{1}, Shape: []int{1}}
	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := reg.Route("hot")
				if err != nil {
					failures.Add(1)
					continue
				}
				if _, err := res.Model.Predict(context.Background(), inst); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := reg.Promote("hot", "v2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the promotion", n)
	}
	res, err := reg.Route("hot")
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != v2 {
		t.Fatalf("post-promotion default = %s, want hot@v2", res.Model.Name())
	}
	if v2.Metrics().Requests("ok") == 0 {
		t.Fatal("promoted version never served")
	}
}

// TestRegistryChurnUnderLoad hammers version install/promote/unload while
// concurrent routed predicts run — the -race soak for the control plane.
func TestRegistryChurnUnderLoad(t *testing.T) {
	reg := NewRegistry()
	base := stubModel("churn@v0", Config{MaxBatchSize: 4, Workers: 2, QueueSize: 256}, runnerFunc(echoRunner))
	reg.install(base)
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
				res, err := reg.Route("churn")
				if err != nil {
					continue // transiently between versions
				}
				// Unloaded-under-us is acceptable; panics and races are not.
				_, _ = res.Model.Predict(context.Background(), inst)
			}
		}()
	}

	for i := 1; i <= 25; i++ {
		v := fmt.Sprintf("v%d", i)
		m := stubModel("churn@"+v, Config{MaxBatchSize: 4, Workers: 2, QueueSize: 256}, runnerFunc(echoRunner))
		reg.install(m)
		if err := reg.Promote("churn", v); err != nil {
			t.Fatalf("promote %s: %v", v, err)
		}
		if err := reg.Unload(fmt.Sprintf("churn@v%d", i-1)); err != nil {
			t.Fatalf("unload v%d: %v", i-1, err)
		}
	}
	close(stop)
	wg.Wait()

	names := reg.Names()
	if len(names) != 1 || names[0] != "churn@v25" {
		t.Fatalf("surviving versions = %v, want [churn@v25]", names)
	}
}

// TestTenantShedding verifies weighted-fair admission: a tenant over its
// share is shed with 429 + Retry-After while another tenant still gets
// in.
func TestTenantShedding(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	run := runnerFunc(func(batch []Instance) ([]Instance, error) {
		entered <- struct{}{}
		<-block
		return batch, nil
	})
	m := stubModel("wfq", Config{MaxBatchSize: 1, QueueSize: 2, Workers: 1}, run)
	m.adm = newAdmission(map[string]int{"alice": 1, "bob": 1}, 2)
	defer m.unload()
	reg := NewRegistry()
	reg.install(m)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Alice fills her whole share (capacity 2, only active tenant).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, data, _ := postJSON(t, srv.URL+"/v1/models/wfq:predict",
				`{"instances": [[1]]}`, map[string]string{"X-Tenant-ID": "alice"})
			if code != http.StatusOK {
				t.Errorf("admitted alice request: status %d: %s", code, data)
			}
		}()
	}
	<-entered // one executing
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second alice request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Alice's third concurrent request exceeds her share → shed.
	code, data, hdr := postJSON(t, srv.URL+"/v1/models/wfq:predict",
		`{"instances": [[1]]}`, map[string]string{"X-Tenant-ID": "alice"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-share request: status %d (%s), want 429", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !bytes.Contains(data, []byte("tenant_quota")) {
		t.Fatalf("shed response does not name the quota: %s", data)
	}
	if m.Metrics().Requests("shed") == 0 {
		t.Fatal("shed outcome not recorded")
	}

	// Bob is within his recomputed share (capacity 2 split two ways) and
	// admission lets him through to the queue.
	release, ok := m.adm.tryAdmit("bob")
	if !ok {
		t.Fatal("bob shed while under his share")
	}
	release()

	// Per-tenant state surfaces in /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `serving_tenant_shed_total{model="wfq",tenant="alice"} 1`) {
		t.Errorf("/metrics missing alice's shed counter:\n%.1200s", metrics)
	}

	close(block)
	wg.Wait()
}

// TestSequenceGraphE2E runs a preprocessor → classifier sequence graph
// over HTTP and verifies the stages link up in the downloaded trace
// under one request ID.
func TestSequenceGraphE2E(t *testing.T) {
	reg := NewRegistry()
	pre := stubModel("pre", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, scaleRunner(2))
	clf := stubModel("clf", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, addRunner(10))
	defer pre.unload()
	defer clf.unload()
	reg.install(pre)
	reg.install(clf)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	err := api.RegisterGraph(GraphSpec{
		Name: "imgflow",
		Root: &GraphNode{Kind: NodeSequence, Steps: []*GraphNode{
			{Kind: NodeModel, Model: "pre"},
			{Kind: NodeModel, Model: "clf"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	code, data, hdr := postJSON(t, srv.URL+"/v1/graphs/imgflow:predict",
		`{"instances": [[1, 2]]}`, map[string]string{"X-Request-ID": "gtrace"})
	if code != http.StatusOK {
		t.Fatalf("graph predict: status %d: %s", code, data)
	}
	if hdr.Get("X-Request-ID") != "gtrace" {
		t.Errorf("graph response echoed X-Request-ID %q", hdr.Get("X-Request-ID"))
	}
	var out struct {
		Predictions [][]float64 `json:"predictions"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("parsing graph response: %v\n%s", err, data)
	}
	// [1,2] ×2 → [2,4], +10 → [12,14].
	if len(out.Predictions) != 1 || len(out.Predictions[0]) != 2 ||
		out.Predictions[0][0] != 12 || out.Predictions[0][1] != 14 {
		t.Fatalf("graph output = %v, want [[12 14]]", out.Predictions)
	}

	// Both stages must appear in the trace under the request's ID, tagged
	// with their graph paths.
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var parsed struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &parsed); err != nil {
		t.Fatal(err)
	}
	traceIDs := map[string]bool{}
	for _, te := range parsed.TraceEvents {
		if te.Cat == "request" {
			if id, _ := te.Args["trace"].(string); id != "" {
				traceIDs[id] = true
			}
		}
	}
	for _, want := range []string{"gtrace/imgflow/root.0", "gtrace/imgflow/root.1"} {
		if !traceIDs[want] {
			t.Errorf("trace missing stage %q; tagged: %v", want, traceIDs)
		}
	}
}

// TestEnsembleAndSwitchGraphs covers the other two composition nodes:
// ensemble fan-out with an average combiner, and content-based switch
// routing.
func TestEnsembleAndSwitchGraphs(t *testing.T) {
	reg := NewRegistry()
	a := stubModel("ens-a", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, addRunner(1))
	b := stubModel("ens-b", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, addRunner(3))
	c := stubModel("ens-c", Config{MaxBatchSize: 4, Workers: 1, QueueSize: 64}, runnerFunc(echoRunner))
	defer a.unload()
	defer b.unload()
	defer c.unload()
	reg.install(a)
	reg.install(b)
	reg.install(c)
	api := NewServer(reg)
	defer api.Close()
	srv := httptest.NewServer(api)
	defer srv.Close()

	if err := api.RegisterGraph(GraphSpec{
		Name: "avg",
		Root: &GraphNode{Kind: NodeEnsemble, Combine: CombineAverage, Members: []*GraphNode{
			{Kind: NodeModel, Model: "ens-a"},
			{Kind: NodeModel, Model: "ens-b"},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := api.RegisterGraph(GraphSpec{
		Name: "router",
		Root: &GraphNode{Kind: NodeSwitch, Cases: []SwitchCase{
			{Value: 1, Node: &GraphNode{Kind: NodeModel, Model: "ens-a"}},
			{Value: 2, Node: &GraphNode{Kind: NodeModel, Model: "ens-b"}},
		}, Default: &GraphNode{Kind: NodeModel, Model: "ens-c"}},
	}); err != nil {
		t.Fatal(err)
	}

	// Ensemble: (5+1 + 5+3)/2 = 7.
	code, data, _ := postJSON(t, srv.URL+"/v1/graphs/avg:predict", `{"instances": [[5]]}`, nil)
	if code != http.StatusOK {
		t.Fatalf("ensemble predict: status %d: %s", code, data)
	}
	if !bytes.Contains(data, []byte("[7]")) {
		t.Fatalf("ensemble average = %s, want [[7]]", data)
	}

	// Switch: selector 1 → +1, selector 2 → +3, selector 9 → default echo.
	for _, tc := range []struct{ in, want string }{
		{`[[1]]`, "[2]"},
		{`[[2]]`, "[5]"},
		{`[[9]]`, "[9]"},
	} {
		code, data, _ := postJSON(t, srv.URL+"/v1/graphs/router:predict",
			`{"instances": `+tc.in+`}`, nil)
		if code != http.StatusOK {
			t.Fatalf("switch predict %s: status %d: %s", tc.in, code, data)
		}
		if !bytes.Contains(data, []byte(tc.want)) {
			t.Fatalf("switch %s = %s, want %s", tc.in, data, tc.want)
		}
	}

	// Graph listing surfaces both.
	resp, err := http.Get(srv.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(data, []byte(`"avg"`)) || !bytes.Contains(data, []byte(`"router"`)) {
		t.Fatalf("graph listing = %s", data)
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
	code, data, _ := postJSON(t, srv.URL+"/v1/models/drainme:predict", `{"instances": [[1]]}`, nil)
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
	qf := &ShedError{Reason: "queue_full", RetryAfter: time.Second}
	if !errors.Is(qf, ErrQueueFull) {
		t.Fatal("queue_full ShedError must unwrap to ErrQueueFull")
	}
	if outcomeLabel(qf) != "queue_full" {
		t.Fatalf("queue_full label = %q", outcomeLabel(qf))
	}
	tq := &ShedError{Reason: "tenant_quota", Tenant: "alice", RetryAfter: time.Second}
	if errors.Is(tq, ErrQueueFull) {
		t.Fatal("tenant_quota ShedError must not claim queue-full")
	}
	if outcomeLabel(tq) != "shed" {
		t.Fatalf("tenant_quota label = %q", outcomeLabel(tq))
	}
	if statusFor(tq) != http.StatusTooManyRequests {
		t.Fatalf("tenant_quota status = %d, want 429", statusFor(tq))
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
