package telemetry

import (
	"sort"
	"sync"
	"time"
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
	d.mu.Lock()
	samples := make([]float64, len(d.samples))
	copy(samples, d.samples)
	d.mu.Unlock()
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sort.Float64s(samples)
	for i, q := range qs {
		idx := int(q * float64(len(samples)-1))
		out[i] = samples[idx]
	}
	return out
}

// KernelStat is the aggregate for one kernel name: invocation count,
// total and p50/p95 wall time, device kernel time where measured, the
// bytes its outputs added, and the measured cost per output element.
type KernelStat struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	TotalMS    float64 `json:"total_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	KernelMS   float64 `json:"kernel_ms,omitempty"`
	HasKernel  bool    `json:"-"`
	BytesAdded int64   `json:"bytes_added"`
	// The measured-cost columns (Kernels only; zero in KernelsForSpan)
	// cover the dispatches that reported an output element count while
	// profiling was on (EnableProfiling):
	// elements produced, wall nanoseconds spent producing them, and the
	// p50/p95 of per-dispatch ns/element over the recent window.
	Elements        int64   `json:"elements,omitempty"`
	CostNS          int64   `json:"cost_ns,omitempty"`
	P50NSPerElement float64 `json:"p50_ns_per_element,omitempty"`
	P95NSPerElement float64 `json:"p95_ns_per_element,omitempty"`
}

// NSPerElement is the mean measured cost of one output element, 0 when
// nothing was measured.
func (k KernelStat) NSPerElement() float64 {
	if k.Elements == 0 {
		return 0
	}
	return float64(k.CostNS) / float64(k.Elements)
}

// TransferStat aggregates data movement across the host/device boundary.
type TransferStat struct {
	UploadCount   int64   `json:"upload_count"`
	UploadBytes   int64   `json:"upload_bytes"`
	UploadMS      float64 `json:"upload_ms"`
	DownloadCount int64   `json:"download_count"`
	DownloadBytes int64   `json:"download_bytes"`
	DownloadMS    float64 `json:"download_ms"`
	PageOutCount  int64   `json:"page_out_count"`
	PageOutBytes  int64   `json:"page_out_bytes"`
	PageInCount   int64   `json:"page_in_count"`
	PageInBytes   int64   `json:"page_in_bytes"`
	FenceCount    int64   `json:"fence_count"`
}

// MemorySample is one point of the engine memory timeline, taken at a
// tidy-scope boundary.
type MemorySample struct {
	Time       time.Time `json:"time"`
	Scope      string    `json:"scope"`
	NumTensors int       `json:"num_tensors"`
	NumBytes   int64     `json:"num_bytes"`
}

// timelineCap bounds the retained memory timeline.
const timelineCap = 4096

// overheadSampleEvery is the self-overhead sampling rate: one in this
// many measured kernel events has its fold timed, so Stats reports its own
// cost without paying two clock reads per kernel.
const overheadSampleEvery = 64

// kernelAgg is the mutable per-kernel accumulator.
type kernelAgg struct {
	count     int64
	totalMS   float64
	kernelMS  float64
	hasKernel bool
	bytes     int64
	dist      *Distribution
	elements  int64
	costNS    int64
	perElem   *Distribution // ns/element per dispatch; nil until measured
}

// Stats is an Observer aggregating kernel statistics (globally and per
// model span), transfer counters and the engine memory timeline. It is the
// one consumer of kernel events behind tfjs-profile's table, the serving
// /metrics per-kernel breakdowns and the measured ns/element series, so
// those surfaces agree by construction.
type Stats struct {
	mu      sync.Mutex
	kernels map[string]*kernelAgg            // by kernel name
	bySpan  map[string]map[string]*kernelAgg // span → kernel name → agg
	// measured counts the kernel events folded into the measured-cost
	// columns; one in overheadSampleEvery of them is timed.
	measured        int64
	overheadSamples int64
	overheadNS      int64
	transfer        TransferStat
	timeline        []MemorySample
	tlAt            int
	rewrites        map[string]int64 // optimizer pattern label → fire count
}

// NewStats returns an empty aggregator.
func NewStats() *Stats {
	return &Stats{
		kernels:  map[string]*kernelAgg{},
		bySpan:   map[string]map[string]*kernelAgg{},
		rewrites: map[string]int64{},
	}
}

// Observe implements Observer.
func (s *Stats) Observe(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case KindKernel:
		measured := ev.Elements > 0 && ProfilingOn()
		var t0 time.Time
		if measured {
			s.measured++
			if s.measured%overheadSampleEvery == 0 {
				t0 = time.Now()
			}
		}
		aggregate(s.kernels, ev, measured)
		if ev.Span != "" {
			m, ok := s.bySpan[ev.Span]
			if !ok {
				m = map[string]*kernelAgg{}
				s.bySpan[ev.Span] = m
			}
			// Nobody reads a per-span cost column: the measured-cost series
			// are per kernel, not per model.
			aggregate(m, ev, false)
		}
		if !t0.IsZero() {
			s.overheadSamples++
			s.overheadNS += time.Since(t0).Nanoseconds()
		}
	case KindUpload:
		s.transfer.UploadCount++
		s.transfer.UploadBytes += ev.Bytes
		s.transfer.UploadMS += ev.DurMS
	case KindDownload:
		s.transfer.DownloadCount++
		s.transfer.DownloadBytes += ev.Bytes
		s.transfer.DownloadMS += ev.DurMS
	case KindPageOut:
		s.transfer.PageOutCount++
		s.transfer.PageOutBytes += ev.Bytes
	case KindPageIn:
		s.transfer.PageInCount++
		s.transfer.PageInBytes += ev.Bytes
	case KindFence:
		s.transfer.FenceCount++
	case KindRewrite:
		s.rewrites[ev.Name]++
	case KindScope:
		sample := MemorySample{
			Time:       ev.Start,
			Scope:      ev.Name,
			NumTensors: ev.NumTensors,
			NumBytes:   ev.TotalBytes,
		}
		if len(s.timeline) < timelineCap {
			s.timeline = append(s.timeline, sample)
		} else {
			s.timeline[s.tlAt] = sample
			s.tlAt = (s.tlAt + 1) % timelineCap
		}
	}
}

// aggregate folds one kernel event into an accumulator map; measured adds
// it to the cost-per-element columns too. Caller holds the lock.
func aggregate(m map[string]*kernelAgg, ev Event, measured bool) {
	a, ok := m[ev.Name]
	if !ok {
		a = &kernelAgg{dist: NewDistribution()}
		m[ev.Name] = a
	}
	a.count++
	a.totalMS += ev.DurMS
	a.bytes += ev.Bytes
	if ev.HasKernelMS {
		a.kernelMS += ev.KernelMS
		a.hasKernel = true
	}
	a.dist.Observe(ev.DurMS)
	if measured {
		ns := ev.DurMS * float64(time.Millisecond)
		a.elements += ev.Elements
		a.costNS += int64(ns)
		if a.perElem == nil {
			a.perElem = NewDistribution()
		}
		a.perElem.Observe(ns / float64(ev.Elements))
	}
}

// snapshot renders an accumulator map, sorted by total time descending.
func snapshot(m map[string]*kernelAgg) []KernelStat {
	out := make([]KernelStat, 0, len(m))
	for name, a := range m {
		qs := a.dist.Quantiles(0.50, 0.95)
		ks := KernelStat{
			Name:       name,
			Count:      a.count,
			TotalMS:    a.totalMS,
			P50MS:      qs[0],
			P95MS:      qs[1],
			KernelMS:   a.kernelMS,
			HasKernel:  a.hasKernel,
			BytesAdded: a.bytes,
			Elements:   a.elements,
			CostNS:     a.costNS,
		}
		if a.perElem != nil {
			qs = a.perElem.Quantiles(0.50, 0.95)
			ks.P50NSPerElement, ks.P95NSPerElement = qs[0], qs[1]
		}
		out = append(out, ks)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Kernels returns the per-kernel aggregates across all spans, sorted by
// total wall time descending.
func (s *Stats) Kernels() []KernelStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return snapshot(s.kernels)
}

// Spans lists the model spans with recorded kernels, sorted.
func (s *Stats) Spans() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.bySpan))
	for name := range s.bySpan {
		out = append(out, name)
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
	return snapshot(m)
}

// SelfCost reports what the aggregator costs the kernel path: how many
// kernel events it folded into the measured-cost columns, and for the one
// in overheadSampleEvery of them it timed, how many samples and their
// summed nanoseconds. ns/samples estimates the per-event cost of Observe.
func (s *Stats) SelfCost() (measured, samples, ns int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measured, s.overheadSamples, s.overheadNS
}

// Transfers returns the data-movement counters.
func (s *Stats) Transfers() TransferStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transfer
}

// Timeline returns the retained memory timeline in observation order.
func (s *Stats) Timeline() []MemorySample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MemorySample, 0, len(s.timeline))
	// Ring order: oldest first.
	if len(s.timeline) == timelineCap {
		out = append(out, s.timeline[s.tlAt:]...)
		out = append(out, s.timeline[:s.tlAt]...)
	} else {
		out = append(out, s.timeline...)
	}
	return out
}

// Rewrites returns the graph-optimizer rewrite counts by pattern label.
func (s *Stats) Rewrites() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.rewrites))
	for k, v := range s.rewrites {
		out[k] = v
	}
	return out
}

// Reset clears all aggregates.
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kernels = map[string]*kernelAgg{}
	s.bySpan = map[string]map[string]*kernelAgg{}
	s.transfer = TransferStat{}
	s.timeline = nil
	s.tlAt = 0
	s.rewrites = map[string]int64{}
	s.measured, s.overheadSamples, s.overheadNS = 0, 0, 0
}

var _ Observer = (*Stats)(nil)
