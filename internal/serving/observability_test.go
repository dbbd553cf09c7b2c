package serving

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
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
	// series — including serving_kernel_time_ms, whose quantile gauge
	// collides with its cumulative counter under OM _total stripping.
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

// TestMetricsContentNegotiation checks both /metrics wire formats: the
// historical flat text stays the default (no metadata lines, text/plain),
// and an OpenMetrics Accept header switches to the OM content type with
// output the strict parser accepts — including the profiler and trace-ring
// self-observability series.
func TestMetricsContentNegotiation(t *testing.T) {
	_, srv := observabilityServer(t)

	resp, legacyBody := get(t, srv.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default /metrics content type = %q", ct)
	}
	if strings.Contains(legacyBody, "# TYPE") || strings.Contains(legacyBody, "# EOF") {
		t.Errorf("default /metrics leaked OpenMetrics metadata:\n%.500s", legacyBody)
	}
	if !strings.Contains(legacyBody, `serving_requests_total{model="mobilenet",outcome="ok"} 2`) {
		t.Errorf("default /metrics missing legacy request counter:\n%.500s", legacyBody)
	}

	resp, body := get(t, srv.URL+"/metrics", map[string]string{
		"Accept": "application/openmetrics-text; version=1.0.0; charset=utf-8",
	})
	if ct := resp.Header.Get("Content-Type"); ct != openMetricsContentType {
		t.Errorf("OM /metrics content type = %q, want %q", ct, openMetricsContentType)
	}
	p, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("OM /metrics rejected by strict parser: %v\n%.1000s", err, body)
	}
	if v, ok := p.Value("serving_requests_total", map[string]string{"model": "mobilenet", "outcome": "ok"}); !ok || v != 2 {
		t.Errorf("OM serving_requests_total = %v, %v", v, ok)
	}
	if fam := p.Family("serving_requests"); fam == nil || fam.Type != telemetry.TypeCounter {
		t.Errorf("serving_requests family missing or untyped: %+v", fam)
	}
	// The profiler's self-observability series and the per-shard trace-ring
	// overwrite counters must be present even when zero — absence and zero
	// are different signals to a dashboard.
	if _, ok := p.Value("telemetry_profiler_events_total", nil); !ok {
		t.Error("OM /metrics missing telemetry_profiler_events_total")
	}
	// The kernel-time quantile gauge keeps its legacy name in the flat
	// format but renders as _window in OM, where the bare name would
	// collide with the serving_kernel_time_ms counter family.
	if !strings.Contains(legacyBody, `serving_kernel_time_ms{model="mobilenet",kernel="MatMul",quantile="0.5"}`) {
		t.Errorf("default /metrics lost the legacy kernel-time gauge name:\n%.1500s", legacyBody)
	}
	if v, ok := p.Value("serving_kernel_time_ms_window", map[string]string{"kernel": "MatMul", "quantile": "0.5"}); !ok || v <= 0 {
		t.Errorf("OM serving_kernel_time_ms_window = %v, %v", v, ok)
	}
	if fam := p.Family("serving_kernel_time_ms"); fam == nil || fam.Type != telemetry.TypeCounter {
		t.Errorf("serving_kernel_time_ms counter family missing or untyped: %+v", fam)
	}
	if shards := p.Samples("telemetry_trace_dropped_events_total"); len(shards) == 0 {
		t.Error("OM /metrics missing per-shard telemetry_trace_dropped_events_total")
	} else {
		for _, s := range shards {
			if s.Label("shard") == "" {
				t.Errorf("trace drop sample without shard label: %+v", s)
			}
		}
	}
}

// TestMetricsProfilerSeries feeds kernel events through the server's
// stats aggregator and checks the per-kernel measured-cost series appear
// on the OpenMetrics exposition with their quantile variants.
func TestMetricsProfilerSeries(t *testing.T) {
	api, srv := observabilityServer(t)
	for i := 0; i < 10; i++ {
		api.Stats().Observe(telemetry.Event{
			Kind: telemetry.KindKernel, Name: "fused_MatMul", DurMS: 2, Elements: 1 << 16,
		})
	}
	_, body := get(t, srv.URL+"/metrics", map[string]string{"Accept": "application/openmetrics-text"})
	p, err := telemetry.ParseExposition(body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]string{"kernel": "fused_MatMul"}
	if v, ok := p.Value("telemetry_kernel_cost_ns_total", want); !ok || v <= 0 {
		t.Errorf("telemetry_kernel_cost_ns_total = %v, %v", v, ok)
	}
	if v, ok := p.Value("telemetry_kernel_cost_items_total", want); !ok || v != 10*(1<<16) {
		t.Errorf("telemetry_kernel_cost_items_total = %v, %v", v, ok)
	}
	for _, q := range []string{"", "0.5", "0.95"} {
		labels := map[string]string{"kernel": "fused_MatMul"}
		if q != "" {
			labels["quantile"] = q
		}
		if v, ok := p.Value("telemetry_kernel_cost_ns_per_element", labels); !ok || v <= 0 {
			t.Errorf("ns_per_element quantile=%q = %v, %v", q, v, ok)
		}
	}
	if v, ok := p.Value("telemetry_profiler_events_total", nil); !ok || v != 10 {
		t.Errorf("telemetry_profiler_events_total = %v, %v", v, ok)
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
