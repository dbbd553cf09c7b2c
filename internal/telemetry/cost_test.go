package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestCostAccountEWMAConverges feeds a constant per-item cost and checks
// the EWMA settles on it, then shifts the cost and checks it tracks.
func TestCostAccountEWMAConverges(t *testing.T) {
	a := NewCostAccount()
	if a.NSPerItem() != 0 {
		t.Fatalf("fresh account NSPerItem = %v, want 0", a.NSPerItem())
	}
	for i := 0; i < 100; i++ {
		a.ObserveCost(1000, 10) // 100 ns/item
	}
	if got := a.NSPerItem(); math.Abs(got-100) > 1 {
		t.Errorf("EWMA after constant 100 ns/item: got %.2f", got)
	}
	// Cost doubles: within a few hundred observations the EWMA (1/8 new
	// weight) must have settled on the new level.
	for i := 0; i < 2000; i++ {
		a.ObserveCost(2000, 10) // 200 ns/item
	}
	if got := a.NSPerItem(); math.Abs(got-200) > 10 {
		t.Errorf("EWMA after shift to 200 ns/item: got %.2f", got)
	}
	if a.Count() != 2100 || a.Items() != 21000 || a.TotalNS() != 100*1000+2000*2000 {
		t.Errorf("totals: count=%d items=%d ns=%d", a.Count(), a.Items(), a.TotalNS())
	}
	// Non-positive item counts are ignored, never divide by zero.
	a.ObserveCost(500, 0)
	a.ObserveCost(500, -3)
	if a.Count() != 2100 {
		t.Errorf("non-positive items changed count: %d", a.Count())
	}
}

// TestCostAccountConcurrent hammers one account from many goroutines while
// readers poll the EWMA and totals — run under -race this is the
// lock-freedom proof for the hot path; the totals check catches lost CAS
// updates.
func TestCostAccountConcurrent(t *testing.T) {
	a := NewCostAccount()
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = a.NSPerItem()
					_ = a.Items()
					_ = a.Count()
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				a.ObserveCost(int64(100+i%7), 1+i%3)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	if got := a.Count(); got != writers*perWriter {
		t.Errorf("lost observations: count=%d want %d", got, writers*perWriter)
	}
	// Writer i%7, i%3 cycles are the same for every writer, so the totals
	// are exact: any lost atomic add shows.
	var wantItems, wantNS int64
	for i := 0; i < perWriter; i++ {
		wantItems += int64(1 + i%3)
		wantNS += int64(100 + i%7)
	}
	if a.Items() != writers*wantItems || a.TotalNS() != writers*wantNS {
		t.Errorf("totals: items=%d ns=%d, want %d / %d", a.Items(), a.TotalNS(), writers*wantItems, writers*wantNS)
	}
	if a.NSPerItem() <= 0 {
		t.Errorf("EWMA = %v after %d observations", a.NSPerItem(), a.Count())
	}
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

// TestProfilerObserve checks the measured-cost columns of Stats — the
// continuous profiler's per-kernel view: only kernel events with a positive
// element count feed them, nothing is measured while profiling is off, and
// the plain count/total columns see every kernel event regardless.
func TestProfilerObserve(t *testing.T) {
	s := NewStats()
	s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: 1, Elements: 1000})
	s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: 3, Elements: 1000})
	s.Observe(Event{Kind: KindKernel, Name: "Relu", DurMS: 0.5, Elements: 500})
	s.Observe(Event{Kind: KindUpload, Name: "upload", DurMS: 9, Elements: 100}) // wrong kind
	s.Observe(Event{Kind: KindKernel, Name: "NoElems", DurMS: 9})               // no element count
	if got, _, _ := s.SelfCost(); got != 3 {
		t.Fatalf("measured events = %d, want 3", got)
	}

	EnableProfiling(false)
	s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: 1, Elements: 1000})
	EnableProfiling(true)
	s.Observe(Event{Kind: KindKernel, Name: "MatMul", DurMS: 1, Elements: 1000})
	if got, _, _ := s.SelfCost(); got != 4 {
		t.Fatalf("measured events = %d after gate cycle, want 4", got)
	}

	// Kernels sorts by total time descending: NoElems 9ms, MatMul 6ms over
	// 4 dispatches of which 3 were measured (5ms, 3000 elements), Relu.
	snap := s.Kernels()
	if len(snap) != 3 || snap[0].Name != "NoElems" || snap[1].Name != "MatMul" || snap[2].Name != "Relu" {
		t.Fatalf("Kernels() = %+v", snap)
	}
	if snap[0].Elements != 0 || snap[0].NSPerElement() != 0 {
		t.Errorf("NoElems was measured: %+v", snap[0])
	}
	mm := snap[1]
	if mm.Count != 4 || mm.Elements != 3000 || mm.CostNS != 5e6 {
		t.Errorf("MatMul summary: %+v", mm)
	}
	if got := mm.NSPerElement(); math.Abs(got-5e6/3000) > 1e-9 {
		t.Errorf("MatMul NSPerElement = %v", got)
	}
	// Per-dispatch ns/element samples were 1000, 3000, 1000; Distribution
	// takes the floor rank, so both quantiles of three samples are 1000.
	if mm.P50NSPerElement != 1000 || mm.P95NSPerElement != 1000 {
		t.Errorf("MatMul ns/element quantiles p50=%v p95=%v", mm.P50NSPerElement, mm.P95NSPerElement)
	}
}

// TestProfilerOverheadSampling drives enough measured events through
// Stats.Observe that the 1-in-overheadSampleEvery self-timing must have
// triggered exactly three times.
func TestProfilerOverheadSampling(t *testing.T) {
	s := NewStats()
	for i := 0; i < 3*overheadSampleEvery; i++ {
		s.Observe(Event{Kind: KindKernel, Name: "K", DurMS: 0.1, Elements: 10})
	}
	_, samples, totalNS := s.SelfCost()
	if samples != 3 {
		t.Errorf("overhead samples = %d, want 3", samples)
	}
	if totalNS < 0 {
		t.Errorf("overhead totalNS = %d", totalNS)
	}
	s.Reset()
	if measured, samples, _ := s.SelfCost(); measured != 0 || samples != 0 {
		t.Errorf("Reset left measured=%d samples=%d", measured, samples)
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
