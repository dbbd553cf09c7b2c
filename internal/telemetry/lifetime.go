package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// siteFrames is how many call-stack frames a sampled allocation retains:
// enough to climb out of the engine internals and show a few levels of the
// user's own call chain.
const siteFrames = 24

// finalizedCap bounds the retained finalizer-reclaimed records; beyond it
// only the counter grows.
const finalizedCap = 256

// allocRecord is one live (or finalizer-reclaimed) tensor handle.
type allocRecord struct {
	id    int64
	bytes int64
	scope string
	span  string
	pcs   []uintptr // nil when this allocation was not sampled
	seq   int64
}

// LifetimeTracker attributes tensor handles to the code that created them:
// the engine calls OnAlloc/OnDispose/OnFinalize for every tensor handle
// while a tracker is installed (Engine.TrackLifetimes), and the tracker
// captures a sampled runtime.Callers stack, the enclosing tidy scope and
// the open model span per allocation. Report renders the survivors as a
// LeakReport: handles that were allocated but never disposed, grouped by
// allocation site and by scope, plus the handles the garbage collector had
// to reclaim through a finalizer — tensors the user leaked but the Node.js
// memory model (§4.2) silently cleaned up.
type LifetimeTracker struct {
	// sampleEvery captures a call stack on every Nth allocation; 1 samples
	// every allocation (the LeakCheck setting), larger values bound the
	// runtime.Callers cost for always-on production tracking.
	sampleEvery int64

	mu        sync.Mutex
	live      map[int64]*allocRecord
	finalized []*allocRecord
	allocs    int64
	disposes  int64
	nfinal    int64
}

// NewLifetimeTracker returns a tracker capturing an allocation-site stack
// on every sampleEvery-th allocation (values < 1 sample every allocation).
func NewLifetimeTracker(sampleEvery int) *LifetimeTracker {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &LifetimeTracker{
		sampleEvery: int64(sampleEvery),
		live:        map[int64]*allocRecord{},
	}
}

// OnAlloc records one tensor-handle allocation, capturing a call stack on
// sampled allocations. scope and span are the enclosing tidy scope and
// open model span at allocation time.
func (l *LifetimeTracker) OnAlloc(id, bytes int64, scope, span string) {
	l.mu.Lock()
	l.allocs++
	seq := l.allocs
	l.mu.Unlock()
	var pcs []uintptr
	if seq%l.sampleEvery == 0 {
		// Captured outside the lock: runtime.Callers is the expensive part
		// and needs no tracker state. Skip runtime.Callers + OnAlloc; the
		// engine frames above are pruned symbolically at report time.
		pcs = make([]uintptr, siteFrames)
		pcs = pcs[:runtime.Callers(2, pcs)]
	}
	// Published complete, under the lock: a concurrent Report never reads
	// a record whose stack is still being written.
	rec := &allocRecord{id: id, bytes: bytes, scope: scope, span: span, pcs: pcs, seq: seq}
	l.mu.Lock()
	l.live[id] = rec
	l.mu.Unlock()
}

// OnDispose records one tensor-handle disposal.
func (l *LifetimeTracker) OnDispose(id int64) {
	l.mu.Lock()
	if _, ok := l.live[id]; ok {
		l.disposes++
		delete(l.live, id)
	}
	l.mu.Unlock()
}

// OnFinalize records that the garbage collector reclaimed an undisposed
// tensor through its finalizer — a leak the user never cleaned up. The
// finalizer still disposes the tensor afterwards, so the handle leaves the
// live set through the ordinary OnDispose path.
func (l *LifetimeTracker) OnFinalize(id int64) {
	l.mu.Lock()
	if rec, ok := l.live[id]; ok {
		l.nfinal++
		if len(l.finalized) < finalizedCap {
			l.finalized = append(l.finalized, rec)
		}
	}
	l.mu.Unlock()
}

// Counts reports total allocations, disposals and finalizer reclaims seen.
func (l *LifetimeTracker) Counts() (allocs, disposes, finalized int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.allocs, l.disposes, l.nfinal
}

// SiteStat aggregates the live tensors created at one allocation site.
type SiteStat struct {
	// Site is the resolved user-level allocation site: "func (file:line)"
	// of the first frame outside the engine and telemetry internals.
	Site string `json:"site"`
	// Frames is the retained call chain, innermost first.
	Frames []string `json:"frames,omitempty"`
	// Tensors is the number of live handles allocated here.
	Tensors int `json:"tensors"`
	// Bytes is their combined logical payload.
	Bytes int64 `json:"bytes"`
}

// ScopeStat aggregates the live tensors that survived one tidy scope (or
// were created outside any scope).
type ScopeStat struct {
	Scope   string `json:"scope"`
	Tensors int    `json:"tensors"`
	Bytes   int64  `json:"bytes"`
}

// DeviceMemory is the device-side memory picture attached to a LeakReport
// by the caller (the tf facade or the serving debug endpoint), since the
// tracker itself never talks to a backend: texture-recycler occupancy and
// paging pressure from the webgl/glsim layer.
type DeviceMemory struct {
	Backend          string `json:"backend"`
	NumTextures      int    `json:"num_textures"`
	TextureBytes     int64  `json:"texture_bytes"`
	FreeTextures     int    `json:"free_textures"`
	PagedBytes       int64  `json:"paged_bytes"`
	PageOuts         int64  `json:"page_outs"`
	PageIns          int64  `json:"page_ins"`
	PeakTextureBytes int64  `json:"peak_texture_bytes,omitempty"`
}

// LeakReport is the tracker's verdict: every tensor handle allocated while
// tracking that is still live, attributed to allocation sites and tidy
// scopes, plus the handles only a finalizer saved.
type LeakReport struct {
	// LiveTensors / LiveBytes count handles allocated under tracking and
	// not yet disposed.
	LiveTensors int   `json:"live_tensors"`
	LiveBytes   int64 `json:"live_bytes"`
	// Allocs / Disposes / Finalized are the tracker's running totals.
	Allocs    int64 `json:"allocs"`
	Disposes  int64 `json:"disposes"`
	Finalized int64 `json:"finalized"`
	// Sites ranks allocation sites by live bytes, descending.
	Sites []SiteStat `json:"sites,omitempty"`
	// Scopes ranks tidy scopes by surviving bytes, descending.
	Scopes []ScopeStat `json:"scopes,omitempty"`
	// FinalizedSites are the sites whose tensors the garbage collector had
	// to reclaim (Node.js-style finalization, §4.2).
	FinalizedSites []SiteStat `json:"finalized_sites,omitempty"`
	// Device is the backend memory picture, filled by the caller.
	Device *DeviceMemory `json:"device,omitempty"`
}

// enginePrefixes name the packages pruned from the top of captured stacks
// when resolving the user-level allocation site: the allocation plumbing
// itself is never the interesting frame.
var enginePrefixes = []string{
	"repro/internal/core.",
	"repro/internal/telemetry.",
	"repro/internal/tensor.",
	"repro/internal/ops.",
	"repro/tf.",
	"runtime.",
}

func engineFrame(fn string) bool {
	for _, p := range enginePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// resolveSite symbolizes a captured stack: the site label is the first
// frame outside the engine internals, and Frames keeps the chain from
// there down for context.
func resolveSite(pcs []uintptr) (site string, chain []string) {
	if len(pcs) == 0 {
		return "(unsampled)", nil
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" && (site != "" || !engineFrame(f.Function)) {
			label := fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
			if site == "" {
				site = label
			}
			chain = append(chain, label)
		}
		if !more || len(chain) >= 8 {
			break
		}
	}
	if site == "" {
		site = "(engine-internal)"
	}
	return site, chain
}

// aggregateSites groups records by resolved allocation site, ranked by
// bytes descending.
func aggregateSites(recs []*allocRecord) []SiteStat {
	bySite := map[string]*SiteStat{}
	var order []string
	for _, rec := range recs {
		site, chain := resolveSite(rec.pcs)
		a, ok := bySite[site]
		if !ok {
			a = &SiteStat{Site: site, Frames: chain}
			bySite[site] = a
			order = append(order, site)
		}
		a.Tensors++
		a.Bytes += rec.bytes
	}
	out := make([]SiteStat, 0, len(order))
	for _, site := range order {
		out = append(out, *bySite[site])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// Report snapshots the tracker into a LeakReport.
func (l *LifetimeTracker) Report() *LeakReport {
	l.mu.Lock()
	live := make([]*allocRecord, 0, len(l.live))
	for _, rec := range l.live {
		live = append(live, rec)
	}
	finalized := make([]*allocRecord, len(l.finalized))
	copy(finalized, l.finalized)
	rep := &LeakReport{
		Allocs:    l.allocs,
		Disposes:  l.disposes,
		Finalized: l.nfinal,
	}
	l.mu.Unlock()

	// Stable order (allocation order) so reports are deterministic.
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	rep.LiveTensors = len(live)
	scopes := map[string]*ScopeStat{}
	var scopeOrder []string
	for _, rec := range live {
		rep.LiveBytes += rec.bytes
		scope := rec.scope
		if scope == "" {
			scope = "(no scope)"
		}
		if rec.span != "" {
			scope = scope + " @ " + rec.span
		}
		s, ok := scopes[scope]
		if !ok {
			s = &ScopeStat{Scope: scope}
			scopes[scope] = s
			scopeOrder = append(scopeOrder, scope)
		}
		s.Tensors++
		s.Bytes += rec.bytes
	}
	rep.Sites = aggregateSites(live)
	rep.FinalizedSites = aggregateSites(finalized)
	for _, scope := range scopeOrder {
		rep.Scopes = append(rep.Scopes, *scopes[scope])
	}
	sort.Slice(rep.Scopes, func(i, j int) bool {
		if rep.Scopes[i].Bytes != rep.Scopes[j].Bytes {
			return rep.Scopes[i].Bytes > rep.Scopes[j].Bytes
		}
		return rep.Scopes[i].Scope < rep.Scopes[j].Scope
	})
	return rep
}

// String renders the report as human-readable text: what fmt.Print of a
// tf.LeakCheck report shows.
func (r *LeakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "leak report: %d live tensor(s), %.2f KiB live (%d allocs, %d disposes, %d finalizer-reclaimed)\n",
		r.LiveTensors, float64(r.LiveBytes)/1024, r.Allocs, r.Disposes, r.Finalized)
	if len(r.Sites) > 0 {
		b.WriteString("\ntop allocation sites by live bytes:\n")
		for i, s := range r.Sites {
			if i >= 10 {
				fmt.Fprintf(&b, "  ... and %d more site(s)\n", len(r.Sites)-i)
				break
			}
			fmt.Fprintf(&b, "  %8d B  %4d tensor(s)  %s\n", s.Bytes, s.Tensors, s.Site)
		}
	}
	if len(r.Scopes) > 0 {
		b.WriteString("\nsurvivors by tidy scope:\n")
		for _, s := range r.Scopes {
			fmt.Fprintf(&b, "  %8d B  %4d tensor(s)  %s\n", s.Bytes, s.Tensors, s.Scope)
		}
	}
	if len(r.FinalizedSites) > 0 {
		b.WriteString("\nfinalizer-reclaimed (leaked, GC cleaned up):\n")
		for _, s := range r.FinalizedSites {
			fmt.Fprintf(&b, "  %8d B  %4d tensor(s)  %s\n", s.Bytes, s.Tensors, s.Site)
		}
	}
	if r.Device != nil {
		d := r.Device
		fmt.Fprintf(&b, "\ndevice (%s): %d texture(s) / %.2f MiB resident, %d recycled free, %.2f MiB paged out (%d out / %d in)\n",
			d.Backend, d.NumTextures, float64(d.TextureBytes)/(1<<20),
			d.FreeTextures, float64(d.PagedBytes)/(1<<20), d.PageOuts, d.PageIns)
	}
	return b.String()
}
