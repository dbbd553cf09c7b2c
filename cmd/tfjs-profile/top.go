package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// The live "top" view: poll a tfjs-serve /metrics endpoint (OpenMetrics
// text) and render a refreshing terminal dashboard —
// per-model request rate and latency quantiles, per-stage breakdown, and
// the top-K kernels by measured cost from the server's kernel-stats
// aggregator. QPS comes from counter deltas between consecutive scrapes,
// so the first frame shows totals only.

// scrape fetches and strictly parses one OpenMetrics exposition.
func scrape(client *http.Client, url string) (*telemetry.Parsed, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return telemetry.ParseExposition(string(body))
}

// modelTotals sums serving_requests_total per model across outcomes (ok
// separately, for QPS) from one scrape.
func modelTotals(p *telemetry.Parsed) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.Samples("serving_requests_total") {
		if s.Label("outcome") == "ok" {
			out[s.Label("model")] += s.Value
		}
	}
	return out
}

// liveTop runs the polling dashboard. iterations <= 0 polls forever.
func liveTop(url string, interval time.Duration, iterations, topK int, out io.Writer) error {
	client := &http.Client{Timeout: interval + 5*time.Second}
	var prev map[string]float64
	var prevAt time.Time
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		p, err := scrape(client, url)
		if err != nil {
			return err
		}
		now := time.Now()
		// ANSI home+clear keeps the dashboard in place on a terminal; when
		// piped, frames simply follow one another.
		fmt.Fprint(out, "\033[H\033[2J")
		fmt.Fprintf(out, "tfjs-top — %s — %s\n\n", url, now.Format("15:04:05"))
		renderModels(out, p, prev, now.Sub(prevAt))
		renderStages(out, p)
		renderKernels(out, p, topK)
		renderProfilerHealth(out, p)
		prev = modelTotals(p)
		prevAt = now
	}
	return nil
}

// renderModels prints per-model QPS (from counter deltas) and end-to-end
// latency quantiles.
func renderModels(out io.Writer, p *telemetry.Parsed, prev map[string]float64, elapsed time.Duration) {
	totals := modelTotals(p)
	models := make([]string, 0, len(totals))
	for m := range totals {
		models = append(models, m)
	}
	sort.Strings(models)
	fmt.Fprintf(out, "%-20s %10s %10s %10s %10s %10s\n", "Model", "OK total", "QPS", "p50 (ms)", "p95 (ms)", "p99 (ms)")
	for _, m := range models {
		qps := "-"
		if prev != nil && elapsed > 0 {
			if last, ok := prev[m]; ok {
				qps = fmt.Sprintf("%.1f", (totals[m]-last)/elapsed.Seconds())
			}
		}
		labels := map[string]string{"model": m}
		p50, _ := p.Value("serving_request_latency_ms", withQuantile(labels, "0.5"))
		p95, _ := p.Value("serving_request_latency_ms", withQuantile(labels, "0.95"))
		p99, _ := p.Value("serving_request_latency_ms", withQuantile(labels, "0.99"))
		fmt.Fprintf(out, "%-20s %10.0f %10s %10.3f %10.3f %10.3f\n", m, totals[m], qps, p50, p95, p99)
	}
	fmt.Fprintln(out)
}

// renderStages prints the per-model per-stage latency quantiles.
func renderStages(out io.Writer, p *telemetry.Parsed) {
	samples := p.Samples("serving_stage_latency_ms")
	if len(samples) == 0 {
		return
	}
	type key struct{ model, stage string }
	rows := map[key]map[string]float64{}
	var keys []key
	for _, s := range samples {
		k := key{s.Label("model"), s.Label("stage")}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			keys = append(keys, k)
		}
		rows[k][s.Label("quantile")] = s.Value
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		return keys[i].stage < keys[j].stage
	})
	fmt.Fprintf(out, "%-20s %-12s %10s %10s %10s\n", "Model", "Stage", "p50 (ms)", "p95 (ms)", "p99 (ms)")
	for _, k := range keys {
		q := rows[k]
		fmt.Fprintf(out, "%-20s %-12s %10.3f %10.3f %10.3f\n", k.model, k.stage, q["0.5"], q["0.95"], q["0.99"])
	}
	fmt.Fprintln(out)
}

// renderKernels prints the top-K kernels by cumulative measured cost from
// the server's kernel-stats aggregator.
func renderKernels(out io.Writer, p *telemetry.Parsed, topK int) {
	type row struct {
		kernel           string
		totalNS, items   float64
		nsPerItem, p50ns float64
		p95ns            float64
	}
	byKernel := map[string]*row{}
	add := func(name string, set func(r *row, v float64)) {
		for _, s := range p.Samples(name) {
			k := s.Label("kernel")
			r := byKernel[k]
			if r == nil {
				r = &row{kernel: k}
				byKernel[k] = r
			}
			set(r, s.Value)
		}
	}
	add("telemetry_kernel_cost_ns_total", func(r *row, v float64) { r.totalNS = v })
	add("telemetry_kernel_cost_items_total", func(r *row, v float64) { r.items = v })
	for _, s := range p.Samples("telemetry_kernel_cost_ns_per_element") {
		r := byKernel[s.Label("kernel")]
		if r == nil {
			continue
		}
		switch s.Label("quantile") {
		case "":
			r.nsPerItem = s.Value
		case "0.5":
			r.p50ns = s.Value
		case "0.95":
			r.p95ns = s.Value
		}
	}
	if len(byKernel) == 0 {
		return
	}
	rows := make([]*row, 0, len(byKernel))
	for _, r := range byKernel {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].totalNS != rows[j].totalNS {
			return rows[i].totalNS > rows[j].totalNS
		}
		return rows[i].kernel < rows[j].kernel
	})
	if topK > 0 && len(rows) > topK {
		rows = rows[:topK]
	}
	fmt.Fprintf(out, "%-26s %12s %14s %12s %12s %12s\n",
		"Kernel (by measured cost)", "Total (ms)", "Elements", "ns/elem", "p50 ns/el", "p95 ns/el")
	for _, r := range rows {
		fmt.Fprintf(out, "%-26s %12.3f %14.0f %12.3f %12.3f %12.3f\n",
			r.kernel, r.totalNS/1e6, r.items, r.nsPerItem, r.p50ns, r.p95ns)
	}
	fmt.Fprintln(out)
}

// renderProfilerHealth prints the aggregator's own counters: kernel events
// measured, sampled self-overhead, and trace-ring drops.
func renderProfilerHealth(out io.Writer, p *telemetry.Parsed) {
	events, _ := p.Value("telemetry_profiler_events_total", nil)
	overheadNS, _ := p.Value("telemetry_profiler_overhead_ns_total", nil)
	samples, _ := p.Value("telemetry_profiler_overhead_samples_total", nil)
	perEvent := 0.0
	if samples > 0 {
		perEvent = overheadNS / samples
	}
	var dropped float64
	for _, s := range p.Samples("telemetry_trace_dropped_events_total") {
		dropped += s.Value
	}
	fmt.Fprintf(out, "profiler: %.0f events, %.0f ns/event sampled overhead; trace ring dropped %.0f events\n",
		events, perEvent, dropped)
}

// withQuantile copies labels plus a quantile selector.
func withQuantile(labels map[string]string, q string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		out[k] = v
	}
	out["quantile"] = q
	return out
}
