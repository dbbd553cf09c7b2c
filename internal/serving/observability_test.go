package serving

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
	"repro/internal/tensor"
)

// observabilityServer spins up a server with one stub model that has seen
// a little traffic, so /metrics has serving series to expose.
func observabilityServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	t.Cleanup(reg.Close)
	m := stubModel("mobilenet", Config{MaxBatchSize: 4, BatchTimeout: time.Millisecond, QueueSize: 16}, runnerFunc(echoRunner))
	reg.install(m)
	api := NewServer(reg)
	t.Cleanup(api.Close)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	m.metrics.ObserveRequest("ok", 1.5)
	m.metrics.ObserveRequest("ok", 2.5)
	m.metrics.ObserveRequest("error", 0.5)
	// Warm the kernel-stats aggregator so /metrics renders the per-kernel
	// series — including serving_kernel_time_ms_window, the quantile gauge
	// beside the serving_kernel_time_ms counter family.
	for i := 0; i < 3; i++ {
		api.Stats().Observe(telemetry.Event{
			Kind: telemetry.KindKernel, Name: "MatMul",
			Span: "mobilenet:predict", DurMS: 1.25, Bytes: 4096,
		})
	}
	return api, srv
}

// get performs a GET with optional extra headers and returns the response
// plus its body.
func get(t *testing.T, url string, headers map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestMetricsContentNegotiation checks that /metrics has one wire format:
// no Accept header, a text/plain one and the OpenMetrics one all get the
// OpenMetrics content type and output the strict parser accepts —
// including the transfer and trace-ring series, present even at zero.
func TestMetricsContentNegotiation(t *testing.T) {
	_, srv := observabilityServer(t)

	for _, accept := range []string{"", "text/plain", openMetricsContentType} {
		headers := map[string]string{}
		if accept != "" {
			headers["Accept"] = accept
		}
		resp, body := get(t, srv.URL+"/metrics", headers)
		if ct := resp.Header.Get("Content-Type"); ct != openMetricsContentType {
			t.Errorf("Accept %q: /metrics content type = %q, want %q", accept, ct, openMetricsContentType)
		}
		if _, err := telemetrytest.ParseExposition(body); err != nil {
			t.Errorf("Accept %q: /metrics rejected by strict parser: %v\n%.1000s", accept, err, body)
		}
	}

	_, body := get(t, srv.URL+"/metrics", nil)
	p, err := telemetrytest.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics rejected by strict parser: %v\n%.1000s", err, body)
	}
	if !strings.Contains(body, `serving_requests_total{model="mobilenet",outcome="ok"} 2`) {
		t.Errorf("/metrics missing request counter:\n%.500s", body)
	}
	if v, ok := p.Value("serving_requests_total", map[string]string{"model": "mobilenet", "outcome": "ok"}); !ok || v != 2 {
		t.Errorf("serving_requests_total = %v, %v", v, ok)
	}
	if fam := p.Family("serving_requests"); fam == nil || fam.Type != telemetry.TypeCounter {
		t.Errorf("serving_requests family missing or untyped: %+v", fam)
	}
	// The transfer counters and the per-shard trace-ring overwrite
	// counters must be present even when zero — absence and zero are
	// different signals to a dashboard.
	if _, ok := p.Value("telemetry_fence_total", nil); !ok {
		t.Error("/metrics missing telemetry_fence_total")
	}
	// The kernel-time quantile gauge is serving_kernel_time_ms_window: the
	// bare name is the serving_kernel_time_ms counter family.
	if !strings.Contains(body, `serving_kernel_time_ms_window{model="mobilenet",kernel="MatMul",quantile="0.5"}`) {
		t.Errorf("/metrics missing the kernel-time quantile gauge:\n%.1500s", body)
	}
	if fam := p.Family("serving_kernel_time_ms_window"); fam == nil || fam.Type != telemetry.TypeGauge {
		t.Errorf("serving_kernel_time_ms_window gauge family missing or untyped: %+v", fam)
	}
	if v, ok := p.Value("serving_kernel_time_ms_window", map[string]string{"kernel": "MatMul", "quantile": "0.5"}); !ok || v <= 0 {
		t.Errorf("serving_kernel_time_ms_window = %v, %v", v, ok)
	}
	if fam := p.Family("serving_kernel_time_ms"); fam == nil || fam.Type != telemetry.TypeCounter {
		t.Errorf("serving_kernel_time_ms counter family missing or untyped: %+v", fam)
	}
	if shards := p.Samples("telemetry_trace_dropped_events_total"); len(shards) == 0 {
		t.Error("/metrics missing per-shard telemetry_trace_dropped_events_total")
	} else {
		for _, s := range shards {
			if s.Label("shard") == "" {
				t.Errorf("trace drop sample without shard label: %+v", s)
			}
		}
	}
}

// TestDebugTraceParamValidation pins the ?seconds contract: non-numeric
// and non-positive values are client errors, valid and absent values echo
// the applied window on X-Trace-Seconds, and the overwrite count always
// rides on X-Trace-Dropped-Events.
func TestDebugTraceParamValidation(t *testing.T) {
	_, srv := observabilityServer(t)

	for _, bad := range []string{"0", "-1", "-0.5", "abc", "1e", "NaN", "-Inf"} {
		resp, body := get(t, srv.URL+"/debug/trace?seconds="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("seconds=%s: status %d, want 400 (%s)", bad, resp.StatusCode, strings.TrimSpace(body))
		}
	}

	resp, _ := get(t, srv.URL+"/debug/trace?seconds=2.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seconds=2.5: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Seconds"); got != "2.5" {
		t.Errorf("X-Trace-Seconds = %q, want 2.5", got)
	}
	if got := resp.Header.Get("X-Trace-Dropped-Events"); got != "0" {
		t.Errorf("X-Trace-Dropped-Events = %q, want 0", got)
	}

	resp, _ = get(t, srv.URL+"/debug/trace", nil)
	if got := resp.Header.Get("X-Trace-Seconds"); got != "all" {
		t.Errorf("absent seconds: X-Trace-Seconds = %q, want all", got)
	}
}

// TestDebugMemoryParamValidation pins the ?leaks contract: bad values are
// 400s, and the applied (possibly capped) capture window is echoed on
// X-Leak-Capture-Seconds.
func TestDebugMemoryParamValidation(t *testing.T) {
	_, srv := observabilityServer(t)

	for _, bad := range []string{"0", "-2", "nope"} {
		resp, body := get(t, srv.URL+"/debug/memory?leaks="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("leaks=%s: status %d, want 400 (%s)", bad, resp.StatusCode, strings.TrimSpace(body))
		}
	}

	resp, _ := get(t, srv.URL+"/debug/memory?leaks=0.05", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leaks=0.05: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Leak-Capture-Seconds"); got != "0.05" {
		t.Errorf("X-Leak-Capture-Seconds = %q, want 0.05", got)
	}
}

// TestDebugMemoryCountsTheCapturedLeaks leaks tensors on the global engine
// during a ?leaks capture: the report's engine counters are sampled after
// the window, so they count every tensor its leak report names.
func TestDebugMemoryCountsTheCapturedLeaks(t *testing.T) {
	_, srv := observabilityServer(t)
	base := core.Global().Memory().NumTensors

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/debug/memory?leaks=0.2")
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{string(body), err}
	}()
	// Leak one tensor at a time until the capture answers, so some are
	// allocated inside the window whenever the handler starts it.
	var leaked []*tensor.Tensor
	defer func() {
		for _, x := range leaked {
			x.Dispose()
		}
	}()
	var res result
	for waiting := true; waiting; {
		leaked = append(leaked, ops.FromValues([]float32{1, 2, 3}, 3))
		select {
		case res = <-done:
			waiting = false
		case <-time.After(5 * time.Millisecond):
		}
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	var rep struct {
		Engine struct{ NumTensors int } `json:"engine"`
		Leaks  struct {
			LiveTensors int `json:"live_tensors"`
		} `json:"leaks"`
	}
	if err := json.Unmarshal([]byte(res.body), &rep); err != nil {
		t.Fatalf("parsing /debug/memory: %v\n%s", err, res.body)
	}
	if rep.Leaks.LiveTensors == 0 {
		t.Fatalf("no leak captured in the window: %s", res.body)
	}
	if got := rep.Engine.NumTensors - base; got < rep.Leaks.LiveTensors {
		t.Errorf("engine.num_tensors counts %d tensors more than before the capture; its leak report names %d", got, rep.Leaks.LiveTensors)
	}
}
