package telemetry

// Measured-cost feedback: the rolling accounts that close the loop between
// measurement and scheduling. The paper's §7 argues a deployed runtime
// needs continuous measurement; here the native backend feeds per-chunk
// timings into per-plan-step CostAccounts and, under
// exec.CostModelMeasured, derives its parallelism grain from the observed
// ns/item instead of compile-time flop guesses, and the serving batcher's
// Retry-After model reads the measured execution cost of the model instead
// of assuming one. The per-kernel view of the same measurement (ns per
// output element on /metrics) is the Stats aggregator's, fed by kernel
// events.

import (
	"math"
	"sync/atomic"
)

// profilingOff gates every measured-cost collection site. Inverted
// polarity so the zero value means "profiling on" — always-on by default,
// no init required.
var profilingOff atomic.Bool

// EnableProfiling turns measured-cost collection on or off process-wide:
// the CostAccount feeds in the native backend and graphmodel.Execute, and
// the ns/element columns of Stats. It is on by default; `tfjs-bench
// overhead` flips it off for the telemetry-off arm of the budget
// measurement.
func EnableProfiling(on bool) { profilingOff.Store(!on) }

// ProfilingOn reports whether measured-cost collection is enabled — the
// single atomic load producers gate on.
func ProfilingOn() bool { return !profilingOff.Load() }

// CostAccount is one rolling measured-cost account: the ns/item EWMA that
// the backend's grain selection and the batcher's Retry-After hint read,
// plus totals. It implements exec.CostObserver. Every field is an atomic —
// concurrent chunk timings from different pool workers never block each
// other — and the zero value is ready to use.
type CostAccount struct {
	// ewma holds math.Float64bits of the smoothed ns/item; 0 means "no
	// observations yet". Updated by CAS so no sample is lost.
	ewma  atomic.Uint64
	count atomic.Int64 // ObserveCost calls
	items atomic.Int64 // total loop items timed
	ns    atomic.Int64 // total nanoseconds timed
}

// ewmaShift is the EWMA smoothing factor as a divisor: new values weigh
// 1/8. Small enough to ride out scheduling noise, large enough to track a
// model's cost drift within a few dozen steps.
const ewmaShift = 8

// NewCostAccount returns an empty account.
func NewCostAccount() *CostAccount { return &CostAccount{} }

// ObserveCost implements exec.CostObserver: fold one timed run of items
// loop iterations taking ns nanoseconds into the account.
func (a *CostAccount) ObserveCost(ns int64, items int) {
	if items <= 0 {
		return
	}
	x := float64(ns) / float64(items)
	a.count.Add(1)
	a.items.Add(int64(items))
	a.ns.Add(ns)
	for {
		old := a.ewma.Load()
		next := x
		if old != 0 {
			prev := math.Float64frombits(old)
			next = prev + (x-prev)/ewmaShift
		}
		if a.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// NSPerItem implements exec.CostObserver: the smoothed measured cost per
// loop item in nanoseconds (0 until the first observation).
func (a *CostAccount) NSPerItem() float64 {
	return math.Float64frombits(a.ewma.Load())
}

// Count returns the number of timed runs folded in.
func (a *CostAccount) Count() int64 { return a.count.Load() }

// Items returns the total loop items timed.
func (a *CostAccount) Items() int64 { return a.items.Load() }

// TotalNS returns the total nanoseconds timed.
func (a *CostAccount) TotalNS() int64 { return a.ns.Load() }
