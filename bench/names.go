package main

// The benchmark's vocabulary. BENCHMARK.json declares the same names (a
// test holds the two together); later issues cite these when they say what
// a change should move.

// endToEnd are the gated metrics, the same on every workload, printed by a
// -trace 0 run.
var endToEnd = map[string]string{
	"setup_s":         "s",       // calibrated median of 7 cold set-ups, each in a fresh process
	"items_per_s":     "items/s", // calibrated median of round throughput
	"latency_p50_ms":  "ms",      // calibrated median of round median per-operation latency
	"allocs_per_item": "count",   // runtime.MemStats.Mallocs over the window ÷ items
	"bytes_per_item":  "bytes",   // TotalAlloc over the window ÷ items
}

// perLayer are the ungated metrics of single layers and the run's
// diagnostics, printed by a -trace 1 run, with their units.
var perLayer = map[string]string{
	// serving: codec and HTTP, replayed single-stream on the window's inputs.
	"serving.http_roundtrip_ms":      "ms",
	"serving.decode_ms":              "ms",
	"serving.encode_ms":              "ms",
	"serving.http_unaccounted_ms":    "ms",
	"serving.http_unaccounted_share": "ratio",
	// serving: scheduler and batcher.
	"serving.predict_ms":        "ms",
	"serving.sched_overhead_ms": "ms",
	"serving.queue_wait_ms":     "ms",
	"serving.gather_ms":         "ms",
	"serving.execute_ms":        "ms",
	"serving.split_ms":          "ms",
	"serving.batch_mean":        "count",
	"serving.batch_max":         "count",
	"serving.rejected":          "count",
	// graphmodel: the artifacts executed directly.
	"graphmodel.execute_b1_ms":       "ms",
	"graphmodel.execute_b16_ms":      "ms",
	"graphmodel.dispatches_per_item": "count",
	"graphmodel.allocs_per_execute":  "count",
	// native kernels at MobileNet's dominant shapes.
	"native.gemm_pointwise_ms": "ms",
	"native.gemm_gflops":       "gflop/s",
	"native.depthwise_ms":      "ms",
	"native.conv3x3_ms":        "ms",
	// buffer recycler and engine bookkeeping.
	"bufpool.hit_ratio":       "ratio",
	"bufpool.pool_bytes":      "bytes",
	"core.live_tensors_delta": "count",
	"core.live_bytes_delta":   "bytes",
	// webgl backend.
	"webgl.gpu_ms_per_item":           "ms",
	"webgl.upload_ms":                 "ms",
	"webgl.enqueue_ms":                "ms",
	"webgl.readback_ms":               "ms",
	"webgl.programs_per_item":         "count",
	"webgl.textures_created_per_item": "count",
	"webgl.free_textures":             "count",
	// layers and training.
	"layers.forward_ms":        "ms",
	"layers.step_ms":           "ms",
	"train.backward_update_ms": "ms",
	"train.final_loss":         "loss",
	// set-up stages, from the cold probes.
	"models.build_ms":             "ms",
	"converter.convert_ms":        "ms",
	"serving.load_ms":             "ms",
	"graphmodel.first_predict_ms": "ms",
	"setup.first_cold_s":          "s",
	"setup.spread":                "ratio",
	// the window three ways (plain, best round, calibrated), the same window
	// unpinned, and the host's measured share.
	"e2e.window_p50_ms":              "ms",
	"e2e.window_tail_ms":             "ms",
	"e2e.window_tail_pct":            "%",
	"e2e.window_items_per_s":         "items/s",
	"e2e.samples":                    "count",
	"e2e.cpu_ms_per_item":            "ms",
	"e2e.failed_share":               "ratio",
	"e2e.best_round_items_per_s":     "items/s",
	"e2e.best_round_p50_ms":          "ms",
	"e2e.calibrated_items_per_s":     "items/s",
	"e2e.calibrated_p50_ms":          "ms",
	"e2e.unpinned_items_per_s":       "items/s",
	"e2e.unpinned_p50_ms":            "ms",
	"e2e.unpinned_speedup":           "ratio",
	"host.slowness_p50":              "ratio",
	"host.burst_share":               "ratio",
	"host.round_spread":              "ratio",
	"host.calibration_ms":            "ms",
	"telemetry.trace_overhead_share": "ratio",
}
