package telemetry

import (
	"slices"
	"sync"
	"testing"
)

// Reset clears all aggregates. Only tests clear a Stats: a served process
// keeps one for its lifetime.
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bySpan = map[string]map[string]*kernelAgg{}
	s.transfer = TransferStat{}
}

// TestDistributionConcurrentQuantiles races quantile reads against writes:
// Quantiles must copy the window under the lock, so a concurrent Observe
// can never hand sort.Float64s a mutating slice. Run with -race.
func TestDistributionConcurrentQuantiles(t *testing.T) {
	d := NewDistribution()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					qs := d.Quantiles(0.5, 0.95, 0.99)
					if qs[0] > qs[2] {
						t.Errorf("p50 %v > p99 %v", qs[0], qs[2])
						return
					}
					_ = d.Count()
					_ = d.Total()
				}
			}
		}()
	}
	// Enough writes to wrap the sliding window several times over.
	const writes = 4 * distributionWindow
	var writerWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		writerWG.Add(1)
		go func(seed int) {
			defer writerWG.Done()
			for i := 0; i < writes; i++ {
				d.Observe(float64(seed*writes + i))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	if got := d.Count(); got != 4*writes {
		t.Errorf("count = %d, want %d", got, 4*writes)
	}
}

// TestKernelsSumSpans checks that Kernels is the per-name sum over the
// spans, the one without a span included: counts, totals and bytes add up,
// and p50/p95 are taken over the union of the spans' windows. Spans lists
// the named spans only.
func TestKernelsSumSpans(t *testing.T) {
	s := NewStats()
	for i := 1; i <= 10; i++ {
		s.Observe(Event{Kind: KindKernel, Name: "MatMul", Span: "a:predict", DurMS: float64(i), Bytes: 1})
	}
	for i := 11; i <= 20; i++ {
		s.Observe(Event{Kind: KindKernel, Name: "MatMul", Span: "b:predict", DurMS: float64(i), Bytes: 2})
	}
	s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: 21, Bytes: 4})
	s.Observe(Event{Kind: KindKernel, Name: "Relu", Span: "a:predict", DurMS: 0.5})

	ks := s.Kernels()
	if len(ks) != 2 || ks[0].Name != "MatMul" || ks[1].Name != "Relu" {
		t.Fatalf("Kernels() = %+v", ks)
	}
	want := KernelStat{Name: "MatMul", Count: 21, TotalMS: 231, P50MS: 11, P95MS: 20, BytesAdded: 34}
	if ks[0] != want {
		t.Errorf("MatMul over three spans = %+v, want %+v", ks[0], want)
	}
	if spans := s.Spans(); !slices.Equal(spans, []string{"a:predict", "b:predict"}) {
		t.Errorf("Spans() = %v", spans)
	}
	// One span's aggregate is that span's window alone.
	want = KernelStat{Name: "MatMul", Count: 10, TotalMS: 155, P50MS: 15, P95MS: 19, BytesAdded: 20}
	if sk := s.KernelsForSpan("b:predict"); len(sk) != 1 || sk[0] != want {
		t.Errorf("KernelsForSpan(b) = %+v, want [%+v]", sk, want)
	}
	if sk := s.KernelsForSpan(""); len(sk) != 1 || sk[0].Count != 1 || sk[0].TotalMS != 21 {
		t.Errorf("KernelsForSpan(\"\") = %+v", sk)
	}
}

// TestRecorderDroppedByShard overflows a tiny ring and checks the
// per-shard overwrite counters: each sums into Dropped, and resetting
// clears them.
func TestRecorderDroppedByShard(t *testing.T) {
	r := NewRecorder(recorderShards) // one slot per shard
	const events = 5 * recorderShards
	for i := 0; i < events; i++ {
		r.Observe(Event{Kind: KindKernel, Name: "K"})
	}
	byShard := r.DroppedByShard()
	if len(byShard) != recorderShards {
		t.Fatalf("DroppedByShard has %d entries, want %d", len(byShard), recorderShards)
	}
	var sum int64
	for _, n := range byShard {
		sum += n
	}
	if sum != r.Dropped() {
		t.Errorf("shard drops sum to %d, Dropped() = %d", sum, r.Dropped())
	}
	if want := int64(events - recorderShards); sum != want {
		t.Errorf("dropped %d events, want %d", sum, want)
	}
	r.Reset()
	if r.Dropped() != 0 {
		t.Errorf("Dropped() = %d after Reset", r.Dropped())
	}
}
