package telemetry

import (
	"sort"
	"sync"
)

// distributionWindow bounds the per-metric sliding sample window used for
// percentile estimates.
const distributionWindow = 512

// Distribution is a bounded sliding window of float64 samples with
// quantile estimation — the one percentile primitive, shared by the kernel
// stats aggregator and the serving latency metrics.
type Distribution struct {
	mu      sync.Mutex
	samples []float64
	at      int
	count   int64
	total   float64
}

// NewDistribution returns an empty distribution with the default window.
func NewDistribution() *Distribution { return &Distribution{} }

// Observe adds one sample.
func (d *Distribution) Observe(v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count++
	d.total += v
	if len(d.samples) < distributionWindow {
		d.samples = append(d.samples, v)
		return
	}
	d.samples[d.at] = v
	d.at = (d.at + 1) % distributionWindow
}

// Count returns the total number of observed samples.
func (d *Distribution) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Total returns the sum of all observed samples.
func (d *Distribution) Total() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Quantiles returns the requested quantiles (each in [0,1]) over the
// recent sample window. Zeroes when empty.
func (d *Distribution) Quantiles(qs ...float64) []float64 {
	samples, _, _ := d.appendWindow(nil)
	return quantiles(samples, qs...)
}

// appendWindow appends the recent sample window to dst and returns it with
// the count and total of every observed sample, read under one lock.
func (d *Distribution) appendWindow(dst []float64) ([]float64, int64, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append(dst, d.samples...), d.count, d.total
}

// quantiles sorts samples in place and returns the requested quantiles of
// them, floor rank. Zeroes when empty.
func quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sort.Float64s(samples)
	for i, q := range qs {
		out[i] = samples[int(q*float64(len(samples)-1))]
	}
	return out
}

// KernelStat is the aggregate for one kernel name: invocation count,
// total and p50/p95 wall time, and the bytes its outputs added.
type KernelStat struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	TotalMS    float64 `json:"total_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	BytesAdded int64   `json:"bytes_added"`
}

// TransferStat aggregates data movement across the host/device boundary.
type TransferStat struct {
	UploadBytes   int64 `json:"upload_bytes"`
	DownloadBytes int64 `json:"download_bytes"`
	PageOutBytes  int64 `json:"page_out_bytes"`
	PageInBytes   int64 `json:"page_in_bytes"`
	FenceCount    int64 `json:"fence_count"`
}

// kernelAgg is the mutable per-kernel accumulator: the wall-time window
// (which also counts and sums every dispatch) and the bytes added.
type kernelAgg struct {
	dist  Distribution
	bytes int64
}

// Stats is an Observer aggregating kernel statistics per model span and
// the transfer counters. It is the one consumer of kernel events behind
// the serving /metrics per-kernel breakdowns and tf.NewKernelStats. Each
// kernel event is folded once, into its span's aggregate (an event with
// no span into the "" span); Kernels sums the spans.
type Stats struct {
	mu       sync.Mutex
	bySpan   map[string]map[string]*kernelAgg // span → kernel name → agg
	transfer TransferStat
}

// NewStats returns an empty aggregator.
func NewStats() *Stats {
	return &Stats{bySpan: map[string]map[string]*kernelAgg{}}
}

// Observe implements Observer.
func (s *Stats) Observe(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case KindKernel:
		m, ok := s.bySpan[ev.Span]
		if !ok {
			m = map[string]*kernelAgg{}
			s.bySpan[ev.Span] = m
		}
		a, ok := m[ev.Name]
		if !ok {
			a = &kernelAgg{}
			m[ev.Name] = a
		}
		a.bytes += ev.Bytes
		a.dist.Observe(ev.DurMS)
	case KindUpload:
		s.transfer.UploadBytes += ev.Bytes
	case KindDownload:
		s.transfer.DownloadBytes += ev.Bytes
	case KindPageOut:
		s.transfer.PageOutBytes += ev.Bytes
	case KindPageIn:
		s.transfer.PageInBytes += ev.Bytes
	case KindFence:
		s.transfer.FenceCount++
	}
}

// kernelSum is one kernel name's aggregate over one or more spans: the
// counters summed, the wall-time windows joined.
type kernelSum struct {
	stat   KernelStat
	window []float64
}

func (k *kernelSum) add(a *kernelAgg) {
	var count int64
	var total float64
	k.window, count, total = a.dist.appendWindow(k.window)
	k.stat.Count += count
	k.stat.TotalMS += total
	k.stat.BytesAdded += a.bytes
}

// sorted renders the sums with their p50/p95, sorted by total time
// descending.
func sorted(sums map[string]*kernelSum) []KernelStat {
	out := make([]KernelStat, 0, len(sums))
	for name, k := range sums {
		qs := quantiles(k.window, 0.50, 0.95)
		k.stat.Name, k.stat.P50MS, k.stat.P95MS = name, qs[0], qs[1]
		out = append(out, k.stat)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Kernels returns the per-kernel aggregates summed over every span, sorted
// by total wall time descending. The p50/p95 are taken over the union of
// the spans' windows.
func (s *Stats) Kernels() []KernelStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	spans := make([]string, 0, len(s.bySpan))
	for span := range s.bySpan {
		spans = append(spans, span)
	}
	sort.Strings(spans) // a fixed summation order: totals do not vary by call
	sums := map[string]*kernelSum{}
	for _, span := range spans {
		for name, a := range s.bySpan[span] {
			k, ok := sums[name]
			if !ok {
				k = &kernelSum{}
				sums[name] = k
			}
			k.add(a)
		}
	}
	return sorted(sums)
}

// Spans lists the model spans with recorded kernels, sorted. Kernels that
// ran outside any span are in Kernels only.
func (s *Stats) Spans() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.bySpan))
	for name := range s.bySpan {
		if name != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// KernelsForSpan returns the per-kernel aggregates attributed to one model
// span.
func (s *Stats) KernelsForSpan(span string) []KernelStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.bySpan[span]
	if !ok {
		return nil
	}
	sums := make(map[string]*kernelSum, len(m))
	for name, a := range m {
		k := &kernelSum{}
		k.add(a)
		sums[name] = k
	}
	return sorted(sums)
}

// Transfers returns the data-movement counters.
func (s *Stats) Transfers() TransferStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transfer
}

var _ Observer = (*Stats)(nil)
