package serving

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Metrics collects one model's serving statistics: request counts by
// outcome, a sliding-window latency distribution (the telemetry
// Distribution primitive, the same estimator backing per-kernel p50/p95),
// and the batch-size histogram that demonstrates (or falsifies)
// micro-batching.
type Metrics struct {
	mu sync.Mutex

	requests map[string]int64 // outcome → count ("ok", "queue_full", ...)

	// latency is the sliding window of end-to-end request latencies (ms).
	latency *telemetry.Distribution

	// batchSizes histograms executed batch sizes (size → executions).
	batchSizes map[int]int64

	// rejected counts submissions refused at the queue (ErrQueueFull) —
	// the backpressure signal operators alert on.
	rejected int64

	// stages holds per-stage latency distributions: queue_wait, gather,
	// execute, split — the request-flow breakdown behind the end-to-end
	// latency number.
	stages map[string]*telemetry.Distribution

	// routes counts routing decisions by label (stable, canary, shadow,
	// pinned) — the observability behind a rollout's traffic split.
	routes map[string]int64
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   map[string]int64{},
		latency:    telemetry.NewDistribution(),
		batchSizes: map[int]int64{},
		stages:     map[string]*telemetry.Distribution{},
		routes:     map[string]int64{},
	}
}

// ObserveRoute counts one routing decision (stable, canary, shadow,
// pinned).
func (m *Metrics) ObserveRoute(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[route]++
}

// Routes returns the count for one routing label.
func (m *Metrics) Routes(route string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routes[route]
}

// ObserveRequest records one finished request: its outcome label and, for
// successful requests, the end-to-end latency in milliseconds.
func (m *Metrics) ObserveRequest(outcome string, latencyMS float64) {
	m.mu.Lock()
	m.requests[outcome]++
	m.mu.Unlock()
	if outcome == "ok" {
		m.latency.Observe(latencyMS)
	}
}

// ObserveBatch records one executed batch of the given size.
func (m *Metrics) ObserveBatch(size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchSizes[size]++
}

// ObserveRejected counts one queue-full rejection.
func (m *Metrics) ObserveRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

// Rejected returns the queue-full rejection count.
func (m *Metrics) Rejected() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejected
}

// ObserveStage records one request's latency through a named serving
// stage (queue_wait, gather, execute, split).
func (m *Metrics) ObserveStage(stage string, ms float64) {
	m.mu.Lock()
	d, ok := m.stages[stage]
	if !ok {
		d = telemetry.NewDistribution()
		m.stages[stage] = d
	}
	m.mu.Unlock()
	d.Observe(ms)
}

// StagePercentiles returns the p50/p95/p99 of one stage's recent latency
// window. Zeroes when the stage has not been observed.
func (m *Metrics) StagePercentiles(stage string) (p50, p95, p99 float64) {
	m.mu.Lock()
	d := m.stages[stage]
	m.mu.Unlock()
	if d == nil {
		return 0, 0, 0
	}
	qs := d.Quantiles(0.50, 0.95, 0.99)
	return qs[0], qs[1], qs[2]
}

// Requests returns the count for one outcome label.
func (m *Metrics) Requests(outcome string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[outcome]
}

// MaxBatchObserved returns the largest executed batch size.
func (m *Metrics) MaxBatchObserved() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := 0
	for size := range m.batchSizes {
		if size > max {
			max = size
		}
	}
	return max
}

// Percentiles returns the p50/p95/p99 of the recent latency window, in
// milliseconds. Zeroes when no requests completed yet.
func (m *Metrics) Percentiles() (p50, p95, p99 float64) {
	qs := m.latency.Quantiles(0.50, 0.95, 0.99)
	return qs[0], qs[1], qs[2]
}

// StageLatency is one serving stage's quantile summary.
type StageLatency struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
}

// Snapshot is one model's metrics in exportable form.
type Snapshot struct {
	Requests      map[string]int64        `json:"requests"`
	LatencyP50    float64                 `json:"latency_ms_p50"`
	LatencyP95    float64                 `json:"latency_ms_p95"`
	LatencyP99    float64                 `json:"latency_ms_p99"`
	BatchSizes    map[int]int64           `json:"batch_sizes"`
	QueueDepth    int                     `json:"queue_depth"`
	QueueRejected int64                   `json:"queue_rejected"`
	Stages        map[string]StageLatency `json:"stages,omitempty"`
	Routes        map[string]int64        `json:"routes,omitempty"`
	Replicas      []ReplicaSnapshot       `json:"replicas,omitempty"`
	Tenants       []TenantSnapshot        `json:"tenants,omitempty"`
}

// snapshot captures the current state; queueDepth is sampled by the caller.
func (m *Metrics) snapshot(queueDepth int) Snapshot {
	p50, p95, p99 := m.Percentiles()
	m.mu.Lock()
	stages := make(map[string]*telemetry.Distribution, len(m.stages))
	for k, d := range m.stages {
		stages[k] = d
	}
	s := Snapshot{
		Requests:   make(map[string]int64, len(m.requests)),
		LatencyP50: p50, LatencyP95: p95, LatencyP99: p99,
		BatchSizes:    make(map[int]int64, len(m.batchSizes)),
		QueueDepth:    queueDepth,
		QueueRejected: m.rejected,
		Stages:        make(map[string]StageLatency, len(m.stages)),
	}
	for k, v := range m.requests {
		s.Requests[k] = v
	}
	for k, v := range m.batchSizes {
		s.BatchSizes[k] = v
	}
	if len(m.routes) > 0 {
		s.Routes = make(map[string]int64, len(m.routes))
		for k, v := range m.routes {
			s.Routes[k] = v
		}
	}
	m.mu.Unlock()
	for k, d := range stages {
		qs := d.Quantiles(0.50, 0.95, 0.99)
		s.Stages[k] = StageLatency{P50: qs[0], P95: qs[1], P99: qs[2]}
	}
	return s
}

// modelOfSpan extracts the model label from a telemetry span name; spans
// are named "<model>:<signature>" by the registry.
func modelOfSpan(span string) string {
	if i := strings.Index(span, ":"); i >= 0 {
		return span[:i]
	}
	return span
}

// buildExposition assembles the full metrics sample set: per-model
// request/latency/batch series, the per-model per-kernel breakdowns and
// measured kernel costs from the telemetry aggregator, the engine's
// tensor/byte counters and the trace-ring drop counters. Families render
// in the order they are declared here.
func buildExposition(models map[string]Snapshot, stats *telemetry.Stats, trace *telemetry.Recorder) *telemetry.Exposition {
	e := telemetry.NewExposition()
	e.Family("serving_requests_total", telemetry.TypeCounter, "Finished requests by model and outcome.")
	e.Family("serving_request_latency_ms", telemetry.TypeGauge, "End-to-end request latency quantiles over the recent window (ms).")
	e.Family("serving_batch_size_total", telemetry.TypeCounter, "Executed batches by batch size.")
	e.Family("serving_queue_depth", telemetry.TypeGauge, "Requests waiting in the batching queue.")
	e.Family("serving_queue_rejected_total", telemetry.TypeCounter, "Submissions refused because the queue was full.")
	e.Family("serving_route_total", telemetry.TypeCounter, "Routing decisions by label (stable, canary, shadow, pinned).")
	e.Family("serving_replica_inflight", telemetry.TypeGauge, "Batches currently executing per replica.")
	e.Family("serving_replica_batches_total", telemetry.TypeCounter, "Batches executed per replica.")
	e.Family("serving_replica_busy_ms_total", telemetry.TypeCounter, "Cumulative busy time per replica (ms).")
	e.Family("serving_replica_pool_free_buffers", telemetry.TypeGauge, "Buffers parked on the replica backend's recycler free lists.")
	e.Family("serving_replica_pool_bytes", telemetry.TypeGauge, "Bytes parked on the replica backend's recycler free lists.")
	e.Family("serving_replica_pool_hits_total", telemetry.TypeCounter, "Allocations served from the replica's recycler free lists.")
	e.Family("serving_replica_pool_misses_total", telemetry.TypeCounter, "Allocations that fell through the replica's recycler to the heap.")
	e.Family("serving_replica_pool_recycled_bytes_total", telemetry.TypeCounter, "Bytes of heap allocation avoided by the replica's recycler.")
	e.Family("serving_tenant_inflight", telemetry.TypeGauge, "Requests currently admitted per tenant.")
	e.Family("serving_tenant_shed_total", telemetry.TypeCounter, "Requests shed by tenant admission control.")
	e.Family("serving_stage_latency_ms", telemetry.TypeGauge, "Per-stage latency quantiles over the recent window (ms).")
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := models[name]
		model := telemetry.L("model", name)
		outcomes := make([]string, 0, len(s.Requests))
		for o := range s.Requests {
			outcomes = append(outcomes, o)
		}
		sort.Strings(outcomes)
		for _, o := range outcomes {
			e.Int("serving_requests_total", s.Requests[o], model, telemetry.L("outcome", o))
		}
		e.Float("serving_request_latency_ms", s.LatencyP50, model, telemetry.L("quantile", "0.5"))
		e.Float("serving_request_latency_ms", s.LatencyP95, model, telemetry.L("quantile", "0.95"))
		e.Float("serving_request_latency_ms", s.LatencyP99, model, telemetry.L("quantile", "0.99"))
		sizes := make([]int, 0, len(s.BatchSizes))
		for size := range s.BatchSizes {
			sizes = append(sizes, size)
		}
		sort.Ints(sizes)
		for _, size := range sizes {
			e.Int("serving_batch_size_total", s.BatchSizes[size], model, telemetry.L("size", strconv.Itoa(size)))
		}
		e.Int("serving_queue_depth", int64(s.QueueDepth), model)
		e.Int("serving_queue_rejected_total", s.QueueRejected, model)
		routeLabels := make([]string, 0, len(s.Routes))
		for route := range s.Routes {
			routeLabels = append(routeLabels, route)
		}
		sort.Strings(routeLabels)
		for _, route := range routeLabels {
			e.Int("serving_route_total", s.Routes[route], model, telemetry.L("route", route))
		}
		for _, rs := range s.Replicas {
			replica := telemetry.L("replica", strconv.Itoa(rs.ID))
			e.Int("serving_replica_inflight", int64(rs.Inflight), model, replica)
			e.Int("serving_replica_batches_total", rs.Batches, model, replica)
			e.Float("serving_replica_busy_ms_total", rs.BusyMS, model, replica)
			e.Int("serving_replica_pool_free_buffers", int64(rs.PoolFreeBuffers), model, replica)
			e.Int("serving_replica_pool_bytes", rs.PoolBytes, model, replica)
			e.Int("serving_replica_pool_hits_total", rs.PoolHits, model, replica)
			e.Int("serving_replica_pool_misses_total", rs.PoolMisses, model, replica)
			e.Int("serving_replica_pool_recycled_bytes_total", rs.PoolRecycledBytes, model, replica)
		}
		for _, ts := range s.Tenants {
			tenant := telemetry.L("tenant", ts.Tenant)
			e.Int("serving_tenant_inflight", int64(ts.Inflight), model, tenant)
			e.Int("serving_tenant_shed_total", ts.Shed, model, tenant)
		}
		stages := make([]string, 0, len(s.Stages))
		for stage := range s.Stages {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		for _, stage := range stages {
			sl := s.Stages[stage]
			stageL := telemetry.L("stage", stage)
			e.Float("serving_stage_latency_ms", sl.P50, model, stageL, telemetry.L("quantile", "0.5"))
			e.Float("serving_stage_latency_ms", sl.P95, model, stageL, telemetry.L("quantile", "0.95"))
			e.Float("serving_stage_latency_ms", sl.P99, model, stageL, telemetry.L("quantile", "0.99"))
		}
	}
	addKernelSamples(e, stats)
	e.Family("engine_num_tensors", telemetry.TypeGauge, "Live tensors on the global engine.")
	e.Family("engine_num_data_buffers", telemetry.TypeGauge, "Live backing buffers on the global engine.")
	e.Family("engine_num_bytes", telemetry.TypeGauge, "Bytes held by live buffers on the global engine.")
	e.Family("engine_peak_bytes", telemetry.TypeGauge, "High-water mark of engine memory (bytes).")
	e.Family("engine_pool_free_buffers", telemetry.TypeGauge, "Buffers parked on the global backend's recycler free lists.")
	e.Family("engine_pool_bytes", telemetry.TypeGauge, "Bytes parked on the global backend's recycler free lists.")
	e.Family("engine_pool_hits_total", telemetry.TypeCounter, "Allocations served from the global backend's recycler.")
	e.Family("engine_pool_misses_total", telemetry.TypeCounter, "Allocations that fell through the global backend's recycler to the heap.")
	e.Family("engine_pool_recycled_bytes_total", telemetry.TypeCounter, "Bytes of heap allocation avoided by the global backend's recycler.")
	mem := core.Global().Memory()
	e.Int("engine_num_tensors", int64(mem.NumTensors))
	e.Int("engine_num_data_buffers", int64(mem.NumDataBuffers))
	e.Int("engine_num_bytes", mem.NumBytes)
	e.Int("engine_peak_bytes", mem.PeakBytes)
	e.Int("engine_pool_free_buffers", int64(mem.Backend.FreeBuffers))
	e.Int("engine_pool_bytes", mem.Backend.PoolBytes)
	e.Int("engine_pool_hits_total", mem.Backend.PoolHits)
	e.Int("engine_pool_misses_total", mem.Backend.PoolMisses)
	e.Int("engine_pool_recycled_bytes_total", mem.Backend.RecycledBytes)
	addRuntimeSamples(e)
	addTraceSamples(e, trace)
	addKernelCostSamples(e, stats)
	return e
}

// addRuntimeSamples appends the Go runtime's GC series — the operator-facing
// evidence for the buffer recycler: with pooling on, steady-state serving
// stops producing garbage, so GC pause quantiles and cycle counts flatten.
// Sourced from runtime/metrics (the supported successor to the deprecated
// GCStats surface).
func addRuntimeSamples(e *telemetry.Exposition) {
	e.Family("process_gc_pause_ms", telemetry.TypeGauge, "Stop-the-world GC pause quantiles over the process lifetime (ms).")
	e.Family("process_gc_cycles_total", telemetry.TypeCounter, "Completed GC cycles.")
	e.Family("process_heap_objects_bytes", telemetry.TypeGauge, "Bytes of live heap objects.")
	samples := []metrics.Sample{
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(samples)
	if h := samples[0].Value; h.Kind() == metrics.KindFloat64Histogram {
		for q, v := range gcPauseQuantiles(h.Float64Histogram(), 0.5, 0.95, 0.99) {
			// Milliseconds, matching every other *_ms series: floats render
			// with %.3f, and GC pauses are sub-millisecond, so a
			// seconds-valued gauge would truncate to 0.000.
			e.Float("process_gc_pause_ms", v*1000, telemetry.L("quantile", []string{"0.5", "0.95", "0.99"}[q]))
		}
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		e.Int("process_gc_cycles_total", int64(v.Uint64()))
	}
	if v := samples[2].Value; v.Kind() == metrics.KindUint64 {
		e.Int("process_heap_objects_bytes", int64(v.Uint64()))
	}
}

// gcPauseQuantiles reads quantiles off a runtime/metrics histogram: the
// value below which the requested fraction of observations fall, taking
// each bucket's upper bound (pessimistic). Infinite bounds clamp to the
// nearest finite neighbor.
func gcPauseQuantiles(h *metrics.Float64Histogram, qs ...float64) []float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	for i, q := range qs {
		target := uint64(q * float64(total))
		var cum uint64
		for b, c := range h.Counts {
			cum += c
			if cum > target {
				hi := h.Buckets[b+1]
				if math.IsInf(hi, 1) {
					hi = h.Buckets[b]
				}
				out[i] = hi
				break
			}
		}
	}
	return out
}

// addKernelSamples appends the per-model per-kernel series sourced from
// the telemetry aggregator — the same numbers tfjs-profile prints, so the
// two surfaces agree by construction.
func addKernelSamples(e *telemetry.Exposition, stats *telemetry.Stats) {
	e.Family("serving_kernel_invocations_total", telemetry.TypeCounter, "Kernel dispatches by model and kernel.")
	e.Family("serving_kernel_time_ms_total", telemetry.TypeCounter, "Cumulative kernel wall time by model and kernel (ms).")
	// Not serving_kernel_time_ms: that is the counter family above once
	// OpenMetrics strips _total.
	e.Family("serving_kernel_time_ms_window", telemetry.TypeGauge, "Kernel wall-time quantiles over the recent window (ms).")
	e.Family("serving_kernel_bytes_added_total", telemetry.TypeCounter, "Bytes of output allocated by kernel dispatches.")
	e.Family("telemetry_upload_bytes_total", telemetry.TypeCounter, "Bytes uploaded host-to-device.")
	e.Family("telemetry_download_bytes_total", telemetry.TypeCounter, "Bytes downloaded device-to-host.")
	e.Family("telemetry_page_out_bytes_total", telemetry.TypeCounter, "Bytes paged out of device memory.")
	e.Family("telemetry_page_in_bytes_total", telemetry.TypeCounter, "Bytes paged back into device memory.")
	e.Family("telemetry_fence_total", telemetry.TypeCounter, "Device fences awaited.")
	for _, span := range stats.Spans() {
		model := telemetry.L("model", modelOfSpan(span))
		for _, ks := range stats.KernelsForSpan(span) {
			kernel := telemetry.L("kernel", ks.Name)
			e.Int("serving_kernel_invocations_total", ks.Count, model, kernel)
			e.Float("serving_kernel_time_ms_total", ks.TotalMS, model, kernel)
			e.Float("serving_kernel_time_ms_window", ks.P50MS, model, kernel, telemetry.L("quantile", "0.5"))
			e.Float("serving_kernel_time_ms_window", ks.P95MS, model, kernel, telemetry.L("quantile", "0.95"))
			e.Int("serving_kernel_bytes_added_total", ks.BytesAdded, model, kernel)
		}
	}
	tr := stats.Transfers()
	e.Int("telemetry_upload_bytes_total", tr.UploadBytes)
	e.Int("telemetry_download_bytes_total", tr.DownloadBytes)
	e.Int("telemetry_page_out_bytes_total", tr.PageOutBytes)
	e.Int("telemetry_page_in_bytes_total", tr.PageInBytes)
	e.Int("telemetry_fence_total", tr.FenceCount)
}

// addTraceSamples appends the trace-ring overwrite counters: one series
// per shard plus nothing else — a nonzero value means downloaded traces
// are truncated to the most recent events.
func addTraceSamples(e *telemetry.Exposition, trace *telemetry.Recorder) {
	e.Family("telemetry_trace_dropped_events_total", telemetry.TypeCounter, "Trace events overwritten by ring wraparound, per shard.")
	for shard, n := range trace.DroppedByShard() {
		e.Int("telemetry_trace_dropped_events_total", n, telemetry.L("shard", strconv.Itoa(shard)))
	}
}

// addKernelCostSamples appends the continuous-profiling series: how many
// kernel events the aggregator measured, what its sampled self-overhead
// cost, and the per-kernel measured cost (ns per output element: mean plus
// windowed quantiles).
func addKernelCostSamples(e *telemetry.Exposition, stats *telemetry.Stats) {
	e.Family("telemetry_profiler_events_total", telemetry.TypeCounter, "Kernel events folded into the measured kernel costs.")
	e.Family("telemetry_profiler_overhead_samples_total", telemetry.TypeCounter, "Aggregator self-overhead samples taken (1 in 64 events).")
	e.Family("telemetry_profiler_overhead_ns_total", telemetry.TypeCounter, "Sampled wall time spent inside the aggregator's observe path (ns).")
	e.Family("telemetry_kernel_cost_ns_total", telemetry.TypeCounter, "Cumulative measured kernel time by kernel (ns).")
	e.Family("telemetry_kernel_cost_items_total", telemetry.TypeCounter, "Output elements processed by measured kernel dispatches.")
	e.Family("telemetry_kernel_cost_ns_per_element", telemetry.TypeGauge, "Measured kernel cost: ns per output element (mean, plus p50/p95 quantiles over the recent window).")
	measured, samples, overheadNS := stats.SelfCost()
	e.Int("telemetry_profiler_events_total", measured)
	e.Int("telemetry_profiler_overhead_samples_total", samples)
	e.Int("telemetry_profiler_overhead_ns_total", overheadNS)
	for _, ks := range stats.Kernels() {
		if ks.Elements == 0 {
			continue
		}
		kernel := telemetry.L("kernel", ks.Name)
		e.Int("telemetry_kernel_cost_ns_total", ks.CostNS, kernel)
		e.Int("telemetry_kernel_cost_items_total", ks.Elements, kernel)
		e.Float("telemetry_kernel_cost_ns_per_element", ks.NSPerElement(), kernel)
		e.Float("telemetry_kernel_cost_ns_per_element", ks.P50NSPerElement, kernel, telemetry.L("quantile", "0.5"))
		e.Float("telemetry_kernel_cost_ns_per_element", ks.P95NSPerElement, kernel, telemetry.L("quantile", "0.95"))
	}
}
