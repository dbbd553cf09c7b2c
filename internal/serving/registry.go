package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/converter"
	"repro/internal/exec"
)

// State is a model's lifecycle phase.
type State int

// Lifecycle states: Load is asynchronous, so a model is visible (and
// reports 503) while loading; Unload stops the scheduler and frees
// weights. Evicted versions look Unloaded until a request resurrects
// them.
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
	// Tenants enables per-tenant weighted-fair admission control: a map
	// of tenant ID → weight. Requests carry their tenant in the
	// X-Tenant-ID header (or WithTenant); unlisted tenants get weight 1,
	// anonymous requests share one bucket. A tenant over its share is
	// shed with 429 + Retry-After. Nil disables admission control
	// entirely (every request competes only at the bounded queue).
	Tenants map[string]int
	// Exec carries the execution configuration applied to this model's
	// load and to each replica's backend: worker budget, cost model and
	// the optimize gate. One option list, the same surface as
	// tf.LoadGraphModel and tf.ConfigureExec.
	Exec []exec.Option
}

// Model is one served model version: scheduler, metrics and lifecycle
// state.
type Model struct {
	name     string // display name, "base" or "base@version"
	backend  string
	exec     exec.Config
	replicas int // ModelOptions.Replicas: what the load asks for
	cfg      Config
	metrics  *Metrics
	adm      *admission // nil when ModelOptions.Tenants is nil

	mu      sync.Mutex
	state   State
	loadErr error
	format  string
	sched   *scheduler
	pool    *pool // the loaded replicas; nil until ready

	ready chan struct{} // closed when loading finishes either way
}

// Name returns the registry name (including the @version suffix when the
// model was registered with one).
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

// Predict runs one example through admission control and the scheduler,
// recording metrics.
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
	if m.adm != nil {
		tenant := TenantOf(ctx)
		release, ok := m.adm.tryAdmit(tenant)
		if !ok {
			m.metrics.ObserveRequest("shed", 0)
			return Instance{}, &ShedError{
				Reason:     "tenant_quota",
				Tenant:     tenant,
				RetryAfter: sched.retryAfter(),
			}
		}
		defer release()
	}
	out, err := sched.Submit(ctx, inst)
	m.metrics.ObserveRequest(outcomeLabel(err), float64(time.Since(start))/float64(time.Millisecond))
	return out, err
}

// outcomeLabel maps a Submit error to its metrics label. A success
// returns before shed is declared: errors.As moves it to the heap.
func outcomeLabel(err error) string {
	if err == nil {
		return "ok"
	}
	var shed *ShedError
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.As(err, &shed):
		return "shed"
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

// ---------------------------------------------------------------------------
// Versioned registry

// parseModelName splits "base@version" into its parts; a bare name has
// version "".
func parseModelName(name string) (base, version string) {
	if i := strings.LastIndex(name, "@"); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// displayName re-joins a base and version into the registry name.
func displayName(base, version string) string {
	if version == "" {
		return base
	}
	return base + "@" + version
}

// entry is one version's slot in a group. The store and options are
// retained so an LRU-evicted version can be reloaded lazily on its next
// request (the converter store is the artifact source of truth; eviction
// frees the weights, not the artifacts).
type entry struct {
	model    *Model
	store    converter.Store
	opts     ModelOptions
	lastUsed atomic.Int64 // unix nanos of the last routed request
	evicted  bool         // true between EvictIdle and lazy reload
}

func (e *entry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// group is one model name's version set plus its rollout state: which
// version is the default, whether a canary takes a weighted slice of
// traffic, and whether a shadow version receives duplicate-and-discard
// traffic.
type group struct {
	base string

	mu        sync.Mutex
	versions  map[string]*entry
	order     []string // registration order; order[0]'s successor inherits default on unload
	defaultV  string
	canaryV   string
	canaryPct int
	shadowV   string
}

// Route labels for metrics and response headers.
const (
	RouteStable = "stable"
	RouteCanary = "canary"
	RoutePinned = "pinned"
	RouteShadow = "shadow"
)

// Registry holds the named models a server exposes, each name a group of
// versions with rollout routing. Multiple models may be loaded
// concurrently, each with its own backend, batching config and replica
// pool.
type Registry struct {
	mu     sync.Mutex
	groups map[string]*group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: map[string]*group{}}
}

// groupFor returns (creating if asked) the named group.
func (r *Registry) groupFor(base string, create bool) (*group, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[base]
	if !ok && create {
		g = &group{base: base, versions: map[string]*entry{}}
		r.groups[base] = g
		ok = true
	}
	return g, ok
}

// newModel builds the registry entry struct (not yet loaded).
func newModel(name string, opts ModelOptions) *Model {
	backend := opts.Backend
	if backend == "" {
		backend = "node"
	}
	cfg := opts.Batching.withDefaults()
	m := &Model{
		name:     name,
		backend:  backend,
		exec:     exec.Make(opts.Exec...),
		replicas: opts.Replicas,
		cfg:      cfg,
		metrics:  NewMetrics(),
		state:    StateLoading,
		ready:    make(chan struct{}),
	}
	if opts.Tenants != nil {
		m.adm = newAdmission(opts.Tenants, cfg.QueueSize)
	}
	return m
}

// Load registers name (optionally "base@version") and starts loading its
// artifacts asynchronously; the returned model reports StateLoading until
// done (WaitReady blocks). The first version loaded under a base becomes
// the group's default; later versions receive traffic only when promoted,
// canaried, shadowed, or addressed explicitly as base@version.
func (r *Registry) Load(name string, store converter.Store, opts ModelOptions) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serving: empty model name")
	}
	base, version := parseModelName(name)
	if base == "" {
		return nil, fmt.Errorf("serving: model name %q has no base", name)
	}
	m := newModel(name, opts)
	g, _ := r.groupFor(base, true)
	g.mu.Lock()
	if _, dup := g.versions[version]; dup {
		g.mu.Unlock()
		return nil, fmt.Errorf("serving: model %q already loaded", name)
	}
	e := &entry{model: m, store: store, opts: opts}
	e.touch()
	g.versions[version] = e
	g.order = append(g.order, version)
	if len(g.order) == 1 {
		g.defaultV = version
	}
	g.mu.Unlock()
	go m.load(store)
	return m, nil
}

// install registers an already-built model under its name (tests and
// embedders that construct Models directly).
func (r *Registry) install(m *Model) {
	base, version := parseModelName(m.name)
	g, _ := r.groupFor(base, true)
	g.mu.Lock()
	defer g.mu.Unlock()
	e := &entry{model: m}
	e.touch()
	g.versions[version] = e
	g.order = append(g.order, version)
	if len(g.order) == 1 {
		g.defaultV = version
	}
}

// Unload stops and removes a model. A bare name removes the whole group;
// "base@version" removes one version — if it was the default, the oldest
// remaining version inherits the default (and any canary/shadow pointer
// at it is cleared).
func (r *Registry) Unload(name string) error {
	base, version := parseModelName(name)
	g, ok := r.groupFor(base, false)
	if !ok {
		return ErrNotFound
	}
	hadVersion := strings.Contains(name, "@")
	var toUnload []*Model
	if !hadVersion {
		// Whole group, whichever versions it holds.
		r.mu.Lock()
		delete(r.groups, base)
		r.mu.Unlock()
		g.mu.Lock()
		if len(g.versions) == 0 {
			g.mu.Unlock()
			return ErrNotFound
		}
		for _, e := range g.versions {
			if e.model != nil {
				toUnload = append(toUnload, e.model)
			}
		}
		g.versions = map[string]*entry{}
		g.order = nil
		g.mu.Unlock()
	} else {
		g.mu.Lock()
		e, ok := g.versions[version]
		if !ok {
			g.mu.Unlock()
			return ErrNotFound
		}
		delete(g.versions, version)
		for i, v := range g.order {
			if v == version {
				g.order = append(g.order[:i], g.order[i+1:]...)
				break
			}
		}
		if g.canaryV == version {
			g.canaryV, g.canaryPct = "", 0
		}
		if g.shadowV == version {
			g.shadowV = ""
		}
		if g.defaultV == version {
			g.defaultV = ""
			if len(g.order) > 0 {
				g.defaultV = g.order[0]
			}
		}
		empty := len(g.versions) == 0
		g.mu.Unlock()
		if e.model != nil {
			toUnload = append(toUnload, e.model)
		}
		if empty {
			r.mu.Lock()
			// Another Load may have raced a fresh group in; only remove ours.
			if cur, ok := r.groups[base]; ok && cur == g {
				delete(r.groups, base)
			}
			r.mu.Unlock()
		}
	}
	for _, m := range toUnload {
		m.unload()
	}
	return nil
}

// Get returns the named model without routing: "base" resolves to the
// group's default version, "base@version" to that exact version. Get is
// passive — it does not count routes, touch LRU clocks, or resurrect
// evicted versions.
func (r *Registry) Get(name string) (*Model, bool) {
	base, version := parseModelName(name)
	g, ok := r.groupFor(base, false)
	if !ok {
		return nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !strings.Contains(name, "@") {
		version = g.defaultV
	}
	e, ok := g.versions[version]
	if !ok || e.model == nil {
		return nil, false
	}
	return e.model, true
}

// RouteResult describes one routing decision.
type RouteResult struct {
	// Model serves the request.
	Model *Model
	// Route is how it was chosen: stable, canary, or pinned.
	Route string
	// Shadow, when non-nil, must receive a duplicate of the request whose
	// response is discarded.
	Shadow *Model
	// Resurrected reports that Model was just revived from eviction and is
	// loading; callers should WaitReady before predicting.
	Resurrected bool
}

// Route resolves a request's model with rollout routing: an explicit
// "base@version" pins that version; a bare name rolls the canary dice
// (canaryPct% of traffic to the canary version, the rest to the default)
// and attaches the shadow version when one is set. Routed entries'
// LRU clocks are touched, evicted entries are resurrected (the request
// should WaitReady on the returned model), and the chosen model's route
// counter increments.
func (r *Registry) Route(name string) (RouteResult, error) {
	base, version := parseModelName(name)
	g, ok := r.groupFor(base, false)
	if !ok {
		return RouteResult{}, ErrNotFound
	}
	pinned := strings.Contains(name, "@")
	g.mu.Lock()
	route := RoutePinned
	if !pinned {
		version = g.defaultV
		route = RouteStable
		if g.canaryV != "" && g.canaryPct > 0 && rand.Intn(100) < g.canaryPct {
			version = g.canaryV
			route = RouteCanary
		}
	}
	e, ok := g.versions[version]
	if !ok || e.model == nil {
		g.mu.Unlock()
		return RouteResult{}, ErrNotFound
	}
	res := RouteResult{Route: route}
	res.Model, res.Resurrected = g.resurrectLocked(e)
	if !pinned && g.shadowV != "" && g.shadowV != version {
		if se, ok := g.versions[g.shadowV]; ok && se.model != nil {
			res.Shadow, _ = g.resurrectLocked(se)
			res.Shadow.metrics.ObserveRoute(RouteShadow)
		}
	}
	g.mu.Unlock()
	res.Model.metrics.ObserveRoute(route)
	return res, nil
}

// resurrectLocked touches an entry's LRU clock and, if the entry was
// evicted, swaps in a fresh Model and restarts its asynchronous load from
// the retained store — the lazy artifact pull behind LRU eviction. Caller
// holds g.mu.
func (g *group) resurrectLocked(e *entry) (*Model, bool) {
	e.touch()
	if e.evicted && e.store != nil {
		m := newModel(e.model.name, e.opts)
		e.model = m
		e.evicted = false
		go m.load(e.store)
		return m, true
	}
	return e.model, false
}

// Promote makes version the group's default — the zero-downtime hot swap:
// the new default starts taking routed traffic at the instant the lock
// releases, while in-flight requests on the old default drain through its
// own scheduler untouched.
func (r *Registry) Promote(base, version string) error {
	g, ok := r.groupFor(base, false)
	if !ok {
		return ErrNotFound
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.versions[version]; !ok {
		return ErrNotFound
	}
	g.defaultV = version
	if g.canaryV == version {
		// The canary is now the default; the split is moot.
		g.canaryV, g.canaryPct = "", 0
	}
	return nil
}

// SetCanary routes percent% of the group's bare-name traffic to version.
// percent 0 clears the canary.
func (r *Registry) SetCanary(base, version string, percent int) error {
	if percent < 0 || percent > 100 {
		return fmt.Errorf("serving: canary percent %d out of range [0,100]", percent)
	}
	g, ok := r.groupFor(base, false)
	if !ok {
		return ErrNotFound
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if percent == 0 {
		g.canaryV, g.canaryPct = "", 0
		return nil
	}
	if _, ok := g.versions[version]; !ok {
		return ErrNotFound
	}
	g.canaryV, g.canaryPct = version, percent
	return nil
}

// SetShadow duplicates the group's bare-name traffic to version,
// discarding the duplicate's responses — the risk-free way to soak a new
// version on production traffic. An empty version clears the shadow.
func (r *Registry) SetShadow(base, version string) error {
	g, ok := r.groupFor(base, false)
	if !ok {
		return ErrNotFound
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if version == "" {
		g.shadowV = ""
		return nil
	}
	if _, ok := g.versions[version]; !ok {
		return ErrNotFound
	}
	g.shadowV = version
	return nil
}

// RolloutStatus is the JSON shape of one group's rollout state.
type RolloutStatus struct {
	Name          string   `json:"name"`
	Versions      []string `json:"versions"`
	Default       string   `json:"default"`
	Canary        string   `json:"canary,omitempty"`
	CanaryPercent int      `json:"canary_percent,omitempty"`
	Shadow        string   `json:"shadow,omitempty"`
	Evicted       []string `json:"evicted,omitempty"`
}

// Rollout reports a group's version set and routing state.
func (r *Registry) Rollout(base string) (RolloutStatus, error) {
	g, ok := r.groupFor(base, false)
	if !ok {
		return RolloutStatus{}, ErrNotFound
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := RolloutStatus{
		Name:          base,
		Versions:      append([]string(nil), g.order...),
		Default:       g.defaultV,
		Canary:        g.canaryV,
		CanaryPercent: g.canaryPct,
		Shadow:        g.shadowV,
	}
	for _, v := range g.order {
		if e := g.versions[v]; e != nil && e.evicted {
			st.Evicted = append(st.Evicted, v)
		}
	}
	return st, nil
}

// EvictIdle unloads versions that are not routing targets (not default,
// canary or shadow) and have not been routed to for at least idleFor.
// Evicted versions keep their registry slot and artifact store; the next
// pinned request resurrects them with a lazy reload. Returns the evicted
// display names.
func (r *Registry) EvictIdle(idleFor time.Duration) []string {
	cutoff := time.Now().Add(-idleFor).UnixNano()
	var evicted []string
	var toUnload []*Model
	for _, base := range r.groupNames() {
		g, ok := r.groupFor(base, false)
		if !ok {
			continue
		}
		g.mu.Lock()
		for v, e := range g.versions {
			if v == g.defaultV || v == g.canaryV || v == g.shadowV {
				continue
			}
			if e.evicted || e.model == nil || !e.model.Ready() {
				continue
			}
			if e.lastUsed.Load() > cutoff {
				continue
			}
			toUnload = append(toUnload, e.model)
			e.evicted = true
			evicted = append(evicted, displayName(base, v))
		}
		g.mu.Unlock()
	}
	for _, m := range toUnload {
		m.unload()
	}
	sort.Strings(evicted)
	return evicted
}

// groupNames lists group base names, sorted.
func (r *Registry) groupNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.groups))
	for base := range r.groups {
		out = append(out, base)
	}
	sort.Strings(out)
	return out
}

// Names lists loaded model display names, sorted.
func (r *Registry) Names() []string {
	var out []string
	for _, base := range r.groupNames() {
		g, ok := r.groupFor(base, false)
		if !ok {
			continue
		}
		g.mu.Lock()
		for _, v := range g.order {
			out = append(out, displayName(base, v))
		}
		g.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// models snapshots every registered model keyed by display name.
func (r *Registry) models() map[string]*Model {
	out := map[string]*Model{}
	for _, base := range r.groupNames() {
		g, ok := r.groupFor(base, false)
		if !ok {
			continue
		}
		g.mu.Lock()
		for v, e := range g.versions {
			if e.model != nil {
				out[displayName(base, v)] = e.model
			}
		}
		g.mu.Unlock()
	}
	return out
}

// Snapshots collects per-model metrics for the /metrics endpoint,
// including per-replica utilization and per-tenant admission state.
func (r *Registry) Snapshots() map[string]Snapshot {
	models := r.models()
	out := make(map[string]Snapshot, len(models))
	for name, m := range models {
		snap := m.metrics.snapshot(m.QueueDepth())
		snap.Replicas = m.replicaSnapshots()
		if m.adm != nil {
			snap.Tenants = m.adm.snapshots()
		}
		out[name] = snap
	}
	return out
}

// AllReady reports whether every registered, non-evicted model version is
// ready — the /readyz condition. An empty registry is ready.
func (r *Registry) AllReady() bool {
	for _, base := range r.groupNames() {
		g, ok := r.groupFor(base, false)
		if !ok {
			continue
		}
		g.mu.Lock()
		for _, e := range g.versions {
			if e.evicted || e.model == nil {
				continue
			}
			if e.model.State() == StateLoading || e.model.State() == StateFailed {
				g.mu.Unlock()
				return false
			}
		}
		g.mu.Unlock()
	}
	return true
}

// Close unloads every model.
func (r *Registry) Close() {
	for _, base := range r.groupNames() {
		//lint:ignore operr best-effort shutdown; Unload fails only for unknown names, which groupNames() just enumerated
		_ = r.Unload(base)
	}
}
