package main

import (
	"encoding/json"
	"os"
	"runtime"
)

// ModeResult is one benchmark mode's measured numbers, the JSON shape of
// the -out artifacts. The fusion A/B and ladder modes fill the
// per-inference fields; the overhead gate fills QPS. KernelDispatches is
// the kernel launches per inference — the graph optimizer's primary
// observable; KernelCounts breaks that down by kernel name.
type ModeResult struct {
	QPS              float64          `json:"qps"`
	PredictMS        float64          `json:"predict_ms,omitempty"`
	PeakBytes        int64            `json:"peak_bytes,omitempty"`
	KernelDispatches int64            `json:"kernel_dispatches,omitempty"`
	KernelCounts     map[string]int64 `json:"kernel_counts,omitempty"`
}

// BenchResult is a captured run: the workload config plus per-mode
// results.
type BenchResult struct {
	Benchmark  string                `json:"benchmark"`
	Alpha      float64               `json:"alpha"`
	Size       int                   `json:"size"`
	Requests   int                   `json:"requests"`
	Clients    int                   `json:"clients"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Modes      map[string]ModeResult `json:"modes"`
}

// newBenchResult stamps a result set with the run's workload config.
func newBenchResult(benchmark string, alpha float64, size, requests, clients int) *BenchResult {
	return &BenchResult{
		Benchmark:  benchmark,
		Alpha:      alpha,
		Size:       size,
		Requests:   requests,
		Clients:    clients,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Modes:      map[string]ModeResult{},
	}
}

// writeJSON persists the results (the CI artifact).
func (br *BenchResult) writeJSON(path string) error {
	data, err := json.MarshalIndent(br, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
