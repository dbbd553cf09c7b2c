package serving

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/kernels"
	"repro/internal/savedmodel"
)

// replica is one independently executing copy of a model: its own engine
// (own backend instance, data plane, tidy-scope stack, execution lock)
// holding its own upload of the weights, which dispose frees. Utilization
// counters feed the per-replica gauges in /metrics.
type replica struct {
	id      int
	eng     *core.Engine
	run     runner
	dispose func()

	inflight atomic.Int64 // batches executing right now
	batches  atomic.Int64 // total batches executed
	busyNS   atomic.Int64 // total wall time spent executing
}

// ReplicaSnapshot is one replica's utilization for /metrics and the
// Snapshot JSON. The pool fields sample the replica backend's buffer
// recycler (zero-valued on backends without one): free-list inventory and
// the hit/miss/recycled counters that show whether steady-state inference
// is actually allocation-free on this replica.
type ReplicaSnapshot struct {
	ID                int     `json:"id"`
	Inflight          int64   `json:"inflight"`
	Batches           int64   `json:"batches"`
	BusyMS            float64 `json:"busy_ms"`
	PoolFreeBuffers   int     `json:"pool_free_buffers,omitempty"`
	PoolBytes         int64   `json:"pool_bytes,omitempty"`
	PoolHits          int64   `json:"pool_hits,omitempty"`
	PoolMisses        int64   `json:"pool_misses,omitempty"`
	PoolRecycledBytes int64   `json:"pool_recycled_bytes,omitempty"`
}

// pool routes batches across replicas. It implements runner, so the
// scheduler is oblivious to replication: each worker's run() call lands
// on the least-loaded replica, and two workers' calls on different
// replicas execute concurrently — this is where the per-replica-engine
// refactor cashes out as throughput. Every served model is a pool, of one
// replica when it does not replicate.
type pool struct {
	replicas []*replica
	rr       atomic.Uint64
}

// loadPool reads the artifact in store as its graph (converter.Load: a
// Layers model is lowered to one) and builds its pool. It returns the
// artifact's format too, for Status.
func loadPool(name string, store converter.Store, backend string, replicas int, ec exec.Config) (*pool, string, error) {
	g, format, err := converter.Load(store)
	if err != nil {
		return nil, "", err
	}
	p, err := graphPool(name, g, backend, replicas, ec)
	return p, format, err
}

// graphPool loads max(size, 1) replicas of a model's graph. Replica 0 runs on
// the global engine; the rest on engines spawned from it. Each replica
// optimizes, verifies and compiles its own plan and uploads its own weight
// copy, so replicas share no mutable state at all.
func graphPool(name string, g *savedmodel.GraphDef, backend string, size int, ec exec.Config) (*pool, error) {
	base := core.Global()
	p := &pool{}
	for i := 0; i < max(size, 1); i++ {
		eng := base
		if i > 0 {
			eng = base.SpawnReplica()
		}
		gm, err := graphmodel.New(g, graphmodel.WithEngine(eng), graphmodel.WithExecConfig(ec))
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("serving: loading replica %d: %w", i, err)
		}
		gm.SetName(name)
		dispose := func() { eng.RunExclusive(gm.Dispose) }
		run, err := newGraphRunner(gm, backend)
		if err != nil {
			dispose()
			p.Close()
			return nil, err
		}
		p.replicas = append(p.replicas, &replica{id: i, eng: eng, run: run, dispose: dispose})
	}
	return p, nil
}

// run implements runner: execute the batch on the least-loaded replica.
func (p *pool) run(batch []Instance) ([]Instance, error) {
	r := p.acquire()
	r.inflight.Add(1)
	start := time.Now()
	out, err := r.run.run(batch)
	r.busyNS.Add(int64(time.Since(start)))
	r.batches.Add(1)
	r.inflight.Add(-1)
	return out, err
}

// acquire picks the replica with the fewest in-flight batches; ties break
// round-robin so idle pools still spread work (and weights stay warm on
// every replica). The counters race benignly with concurrent run() calls
// — a stale read costs one suboptimal placement, never correctness.
func (p *pool) acquire() *replica {
	n := uint64(len(p.replicas))
	if n == 1 {
		return p.replicas[0]
	}
	start := p.rr.Add(1)
	best := p.replicas[start%n]
	bestLoad := best.inflight.Load()
	for i := uint64(1); i < n && bestLoad > 0; i++ {
		r := p.replicas[(start+i)%n]
		if load := r.inflight.Load(); load < bestLoad {
			best, bestLoad = r, load
		}
	}
	return best
}

// size returns the replica count.
func (p *pool) size() int { return len(p.replicas) }

// snapshots samples per-replica utilization.
func (p *pool) snapshots() []ReplicaSnapshot {
	out := make([]ReplicaSnapshot, len(p.replicas))
	for i, r := range p.replicas {
		var bk kernels.MemoryInfo
		if r.eng != nil {
			bk = r.eng.Backend().Memory()
		}
		out[i] = ReplicaSnapshot{
			ID:                r.id,
			Inflight:          r.inflight.Load(),
			Batches:           r.batches.Load(),
			BusyMS:            float64(r.busyNS.Load()) / float64(time.Millisecond),
			PoolFreeBuffers:   bk.FreeBuffers,
			PoolBytes:         bk.PoolBytes,
			PoolHits:          bk.PoolHits,
			PoolMisses:        bk.PoolMisses,
			PoolRecycledBytes: bk.RecycledBytes,
		}
	}
	return out
}

// Close disposes every replica's weights (including partially built
// pools on the load error path).
func (p *pool) Close() {
	for _, r := range p.replicas {
		r.dispose()
	}
	p.replicas = nil
}
