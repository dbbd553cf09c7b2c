package serving

// This file implements per-tenant admission control: weighted-fair
// sharing of a model's serving capacity, with load shedding when a
// tenant exceeds its share. It is the multi-tenancy layer over the
// bounded-queue scheduler — the queue bounds total work, admission
// bounds each tenant's slice of it, so one chatty tenant degrades
// itself instead of everyone.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// tenantKey carries the requesting tenant through a context (the HTTP
// layer sets it from the X-Tenant-ID header).
type tenantKey struct{}

// WithTenant returns ctx annotated with the requesting tenant's ID.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantOf returns the tenant ID from ctx, or "" for anonymous requests.
func TenantOf(ctx context.Context) string {
	if v, ok := ctx.Value(tenantKey{}).(string); ok {
		return v
	}
	return ""
}

// anonymousTenant buckets requests that carry no tenant ID, so anonymous
// traffic competes under one (configurable) weight instead of bypassing
// fairness.
const anonymousTenant = "_anonymous"

// unlistedTenants is the one metrics series of every tenant
// ModelOptions.Tenants does not list. A client chooses its X-Tenant-ID, so
// a series per ID would let clients grow the shed map and /metrics without
// bound.
const unlistedTenants = "_unlisted"

// ShedError is returned when admission control or the bounded queue
// refuses a request. It maps to HTTP 429 with a Retry-After header
// estimated from the model's recent execution latency.
type ShedError struct {
	// Reason is "tenant_quota" (the tenant exceeded its weighted-fair
	// share) or "queue_full" (total capacity exhausted).
	Reason string
	// Tenant is the shed tenant ("" when anonymous or not tenant-scoped).
	Tenant string
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *ShedError) Error() string {
	if e.Tenant != "" && e.Tenant != anonymousTenant {
		return fmt.Sprintf("serving: request shed (%s, tenant %q); retry after %s", e.Reason, e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("serving: request shed (%s); retry after %s", e.Reason, e.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrQueueFull) keep working for queue-full
// sheds, preserving the pre-admission error contract (and the
// "queue_full" metrics label).
func (e *ShedError) Unwrap() error {
	if e.Reason == "queue_full" {
		return ErrQueueFull
	}
	return nil
}

// admission is a work-conserving weighted-fair admission controller over
// a model's in-flight requests. Each tenant t with weight w_t may hold up
// to share_t = ceil(capacity · w_t / Σ weights of active tenants) slots,
// where "active" means holding at least one slot right now. Shares are
// recomputed per admission from live state, so an idle tenant's share
// flows to the busy ones (work conservation) and returns the moment it
// wakes up.
type admission struct {
	mu sync.Mutex
	// weights maps tenant → weight. Tenants not listed get defaultWeight.
	weights       map[string]int
	defaultWeight int
	capacity      int
	inflight      map[string]int
	shed          map[string]int64 // series (seriesOf) → sheds, for metrics
}

// newAdmission builds the controller. capacity is the model's total
// concurrent-request budget (the scheduler queue size: requests past it
// would be refused anyway).
func newAdmission(tenants map[string]int, capacity int) *admission {
	w := make(map[string]int, len(tenants))
	for t, weight := range tenants {
		if weight > 0 {
			w[t] = weight
		}
	}
	return &admission{
		weights:       w,
		defaultWeight: 1,
		capacity:      capacity,
		inflight:      map[string]int{},
		shed:          map[string]int64{},
	}
}

func (a *admission) weightOf(tenant string) int {
	if w, ok := a.weights[tenant]; ok {
		return w
	}
	return a.defaultWeight
}

// tryAdmit claims a slot for tenant, returning its release function, or
// reports the tenant over-share. The returned release must be called
// exactly once when the request leaves the system.
func (a *admission) tryAdmit(tenant string) (release func(), ok bool) {
	if tenant == "" {
		tenant = anonymousTenant
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Σ weights over active tenants, counting the candidate as active so
	// a newly arriving tenant immediately claims its own share.
	totalW := a.weightOf(tenant)
	for t, n := range a.inflight {
		if n > 0 && t != tenant {
			totalW += a.weightOf(t)
		}
	}
	share := (a.capacity*a.weightOf(tenant) + totalW - 1) / totalW
	if share < 1 {
		share = 1
	}
	if a.inflight[tenant] >= share {
		a.shed[a.seriesOf(tenant)]++
		return nil, false
	}
	a.inflight[tenant]++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			if a.inflight[tenant]--; a.inflight[tenant] <= 0 {
				delete(a.inflight, tenant)
			}
			a.mu.Unlock()
		})
	}, true
}

// TenantSnapshot is one tenant's admission state for /metrics.
type TenantSnapshot struct {
	Tenant   string `json:"tenant"`
	Weight   int    `json:"weight"`
	Inflight int    `json:"inflight"`
	Shed     int64  `json:"shed"`
}

// seriesOf names the metrics series tenant is counted under: its own when
// it is listed or anonymous, unlistedTenants otherwise. Admission still
// gives each unlisted tenant its own share.
func (a *admission) seriesOf(tenant string) string {
	if _, listed := a.weights[tenant]; listed || tenant == anonymousTenant {
		return tenant
	}
	return unlistedTenants
}

// snapshots samples admission state per series: every configured tenant,
// and the anonymous and unlisted series while they have in-flight work or
// once they have shed.
func (a *admission) snapshots() []TenantSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	inflight := make(map[string]int, len(a.weights)+2)
	for t := range a.weights {
		inflight[t] = 0
	}
	for t, n := range a.inflight {
		inflight[a.seriesOf(t)] += n
	}
	for t := range a.shed {
		inflight[t] += 0
	}
	out := make([]TenantSnapshot, 0, len(inflight))
	for t, n := range inflight {
		out = append(out, TenantSnapshot{Tenant: t, Weight: a.weightOf(t), Inflight: n, Shed: a.shed[t]})
	}
	return out
}

// retryAfterHint estimates a client backoff from the model's recent
// execute-stage latency and queue depth: roughly "one queue drain" —
// p50 execution time times the batches ahead — clamped to a sane band.
// The execute stage is sampled once per completed batch execute, so it is
// the model's measured execution time; a model that has executed nothing
// yet is assumed to take 50 ms.
func retryAfterHint(m *Metrics, queueDepth, maxBatch int) time.Duration {
	p50, _, _ := m.StagePercentiles("execute")
	if p50 <= 0 {
		p50 = 50 // nothing observed yet: assume a 50ms model
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	batchesAhead := queueDepth/maxBatch + 1
	d := time.Duration(p50*float64(batchesAhead)) * time.Millisecond
	const floor, ceil = 100 * time.Millisecond, 5 * time.Second
	if d < floor {
		return floor
	}
	if d > ceil {
		return ceil
	}
	return d
}
