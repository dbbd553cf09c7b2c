package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestUnlistedTenantsShareOneSeries: a client picks its X-Tenant-ID, so
// tenants the model does not list are counted in one series. A thousand IDs
// shed once each, and two more holding a slot each, are one snapshot beside
// the listed tenant's, and no shed or slot goes uncounted.
func TestUnlistedTenantsShareOneSeries(t *testing.T) {
	a := newAdmission(map[string]int{"pro": 4}, 2)
	shedOnce := func(tenant string) {
		var releases []func()
		for {
			release, ok := a.tryAdmit(tenant)
			if !ok {
				break
			}
			releases = append(releases, release)
		}
		for _, release := range releases {
			release()
		}
	}
	const ids = 1000
	for i := 0; i < ids; i++ {
		shedOnce(fmt.Sprintf("client-%d", i))
	}
	shedOnce("pro")
	for _, tenant := range []string{"holder-1", "holder-2"} {
		release, ok := a.tryAdmit(tenant)
		if !ok {
			t.Fatalf("%s shed with every slot free", tenant)
		}
		defer release()
	}
	got := map[string]TenantSnapshot{}
	for _, ts := range a.snapshots() {
		got[ts.Tenant] = ts
	}
	want := map[string]TenantSnapshot{
		"pro":       {Tenant: "pro", Weight: 4, Shed: 1},
		"_unlisted": {Tenant: "_unlisted", Weight: 1, Inflight: 2, Shed: ids},
	}
	if !maps.Equal(got, want) {
		t.Errorf("tenant snapshots %v, want %v", got, want)
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
