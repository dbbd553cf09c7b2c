package serving

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/converter"
	"repro/internal/exec"
)

// State is a model's lifecycle phase.
type State int

// Lifecycle states: Load is asynchronous, so a model is visible (and
// reports 503) while loading; Unload stops the scheduler and frees
// weights.
const (
	StateLoading State = iota
	StateReady
	StateFailed
	StateUnloaded
)

// String renders the state for status endpoints.
func (s State) String() string {
	switch s {
	case StateLoading:
		return "loading"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	case StateUnloaded:
		return "unloaded"
	}
	return "unknown"
}

// ModelOptions configures one registry entry.
type ModelOptions struct {
	// Backend names the engine backend this model executes on ("cpu",
	// "webgl", "node", ...). Empty means "node", the native server-side
	// backend (§4.2).
	Backend string
	// Batching tunes the scheduler and micro-batcher.
	Batching Config
	// Replicas is the number of independent engine replicas serving this
	// model. Each replica is a full copy — its own engine, backend
	// instance and weight upload — so N replicas execute up to N batches
	// concurrently. 0 or 1 means one replica, on the global engine.
	Replicas int
	// Exec carries the execution configuration applied to this model's
	// load and to each replica's backend: worker budget, cost model and
	// the optimize gate. One option list, the same surface as
	// tf.LoadGraphModel and tf.ConfigureExec.
	Exec []exec.Option
}

// Model is one served model: scheduler, metrics and lifecycle state.
type Model struct {
	name     string
	backend  string
	exec     exec.Config
	replicas int // ModelOptions.Replicas: what the load asks for
	cfg      Config
	metrics  *Metrics

	mu      sync.Mutex
	state   State
	loadErr error
	format  string
	sched   *scheduler
	pool    *pool // the loaded replicas; nil until ready

	ready chan struct{} // closed when loading finishes either way
}

// Name returns the registry name.
func (m *Model) Name() string { return m.name }

// Backend returns the backend this model executes on.
func (m *Model) Backend() string { return m.backend }

// Metrics returns the model's metrics collector.
func (m *Model) Metrics() *Metrics { return m.metrics }

// Replicas returns the loaded pool's replica count, 1 before the model is
// ready.
func (m *Model) Replicas() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicasLocked()
}

func (m *Model) replicasLocked() int {
	if m.pool == nil {
		return 1
	}
	return m.pool.size()
}

// State returns the current lifecycle state.
func (m *Model) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Ready reports whether the model accepts predictions.
func (m *Model) Ready() bool { return m.State() == StateReady }

// WaitReady blocks until loading finishes or ctx expires, then reports
// the load error if any.
func (m *Model) WaitReady(ctx context.Context) error {
	select {
	case <-m.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateReady {
		if m.loadErr != nil {
			return m.loadErr
		}
		return ErrNotReady
	}
	return nil
}

// QueueDepth samples the pending-request queue.
func (m *Model) QueueDepth() int {
	m.mu.Lock()
	sched := m.sched
	m.mu.Unlock()
	if sched == nil {
		return 0
	}
	return sched.QueueDepth()
}

// replicaSnapshots samples per-replica utilization (nil before the model
// is ready).
func (m *Model) replicaSnapshots() []ReplicaSnapshot {
	m.mu.Lock()
	p := m.pool
	m.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.snapshots()
}

// Status is the JSON shape of GET /v1/models/{name} (KServe V1 readiness
// plus diagnostics).
type Status struct {
	Name     string `json:"name"`
	Ready    bool   `json:"ready"`
	State    string `json:"state"`
	Backend  string `json:"backend"`
	Replicas int    `json:"replicas,omitempty"`
	Format   string `json:"format,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots the model's lifecycle for the status endpoint.
func (m *Model) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Name:    m.name,
		Ready:   m.state == StateReady,
		State:   m.state.String(),
		Backend: m.backend,
		Format:  m.format,
	}
	if n := m.replicasLocked(); n > 1 {
		s.Replicas = n
	}
	if m.loadErr != nil {
		s.Error = m.loadErr.Error()
	}
	return s
}

// Predict runs one example through the scheduler, recording metrics.
func (m *Model) Predict(ctx context.Context, inst Instance) (Instance, error) {
	start := time.Now()
	m.mu.Lock()
	state := m.state
	sched := m.sched
	m.mu.Unlock()
	if state != StateReady || sched == nil {
		m.metrics.ObserveRequest("not_ready", 0)
		return Instance{}, ErrNotReady
	}
	out, err := sched.Submit(ctx, inst)
	m.metrics.ObserveRequest(outcomeLabel(err), float64(time.Since(start))/float64(time.Millisecond))
	return out, err
}

// outcomeLabel maps a Submit error to its metrics label.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	case errors.Is(err, ErrShuttingDown):
		return "shutdown"
	default:
		return "error"
	}
}

// load builds the model's replica pool and scheduler and flips state.
func (m *Model) load(store converter.Store) {
	p, format, err := loadPool(m.name, store, m.backend, m.replicas, m.exec)
	m.mu.Lock()
	if m.state == StateUnloaded {
		// Unloaded while loading: discard.
		m.mu.Unlock()
		if p != nil {
			p.Close()
		}
		close(m.ready)
		return
	}
	if err != nil {
		m.state = StateFailed
		m.loadErr = err
	} else {
		cfg := m.cfg
		// One worker per replica, or the pool can never run them all
		// concurrently: workers pull from the queue and each occupies one
		// replica for the duration of a batch.
		cfg.Workers = max(cfg.Workers, p.size())
		m.format = format
		m.sched = newScheduler(cfg, m.name, p, m.metrics)
		m.pool = p
		m.state = StateReady
	}
	m.mu.Unlock()
	close(m.ready)
}

// unload stops the scheduler and frees the model's weights.
func (m *Model) unload() {
	m.mu.Lock()
	prev := m.state
	m.state = StateUnloaded
	sched := m.sched
	p := m.pool
	m.sched = nil
	m.pool = nil
	m.mu.Unlock()
	if prev == StateUnloaded {
		return
	}
	if sched != nil {
		sched.Close()
	}
	if p != nil {
		p.Close()
	}
}

// Registry holds the named models a server exposes, one model per name.
// Multiple models may be loaded concurrently, each with its own backend,
// batching config and replica pool.
type Registry struct {
	mu     sync.Mutex
	models map[string]*Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*Model{}}
}

// newModel builds the registry entry struct (not yet loaded).
func newModel(name string, opts ModelOptions) *Model {
	backend := opts.Backend
	if backend == "" {
		backend = "node"
	}
	return &Model{
		name:     name,
		backend:  backend,
		exec:     exec.Make(opts.Exec...),
		replicas: opts.Replicas,
		cfg:      opts.Batching.withDefaults(),
		metrics:  NewMetrics(),
		state:    StateLoading,
		ready:    make(chan struct{}),
	}
}

// Load registers name and starts loading its artifacts asynchronously; the
// returned model reports StateLoading until done (WaitReady blocks). A
// name is the {name} of /v1/models/{name}[:verb], so one that is empty or
// holds a '/' or ':' is refused: no URL could reach it.
func (r *Registry) Load(name string, store converter.Store, opts ModelOptions) (*Model, error) {
	if name == "" || strings.ContainsAny(name, "/:") {
		return nil, fmt.Errorf("serving: model name %q is empty or holds '/' or ':'", name)
	}
	m := newModel(name, opts)
	r.mu.Lock()
	if _, dup := r.models[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("serving: model %q already loaded", name)
	}
	r.models[name] = m
	r.mu.Unlock()
	go m.load(store)
	return m, nil
}

// install registers an already-built model under its name (tests and
// embedders that construct Models directly).
func (r *Registry) install(m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[m.name] = m
}

// Unload stops the named model and removes it.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	m, ok := r.models[name]
	delete(r.models, name)
	r.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	m.unload()
	return nil
}

// Get returns the named model.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[name]
	return m, ok
}

// Names lists loaded model names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Sorted(maps.Keys(r.models))
}

// snapshot copies the name → model map, so callers sample models without
// holding the registry lock.
func (r *Registry) snapshot() map[string]*Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.models)
}

// Snapshots collects per-model metrics for the /metrics endpoint,
// including per-replica utilization.
func (r *Registry) Snapshots() map[string]Snapshot {
	models := r.snapshot()
	out := make(map[string]Snapshot, len(models))
	for name, m := range models {
		snap := m.metrics.snapshot(m.QueueDepth())
		snap.Replicas = m.replicaSnapshots()
		out[name] = snap
	}
	return out
}

// AllReady reports whether every registered model is ready — the /readyz
// condition. An empty registry is ready.
func (r *Registry) AllReady() bool {
	for _, m := range r.snapshot() {
		if st := m.State(); st == StateLoading || st == StateFailed {
			return false
		}
	}
	return true
}

// Close unloads every model.
func (r *Registry) Close() {
	r.mu.Lock()
	models := r.models
	r.models = map[string]*Model{}
	r.mu.Unlock()
	for _, m := range models {
		m.unload()
	}
}
