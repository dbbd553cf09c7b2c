package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// maxBodyBytes bounds a predict request body (64 MiB of JSON).
const maxBodyBytes = 64 << 20

// Server exposes a Registry over the KServe-V1-style HTTP surface:
//
//	GET  /v1/models                     → {"models": [...]}
//	GET  /v1/models/{name}              → readiness + state ({name} may be base@version)
//	POST /v1/models/{name}:predict      → {"instances": [...]} → {"predictions": [...]}
//	GET  /v1/models/{base}:rollout      → version set + routing state
//	POST /v1/models/{base}:promote      → ?version=v2: make v2 the default (hot swap)
//	POST /v1/models/{base}:canary       → ?version=v2&percent=10: weighted canary split
//	POST /v1/models/{base}:shadow       → ?version=v2: duplicate-and-discard mirror ("" clears)
//	POST /v1/models/{base}:evict        → ?idle=5m: LRU-evict idle versions registry-wide
//	GET  /v1/graphs                     → {"graphs": [...]}
//	POST /v1/graphs/{name}:predict      → run an inference graph (sequence/ensemble/switch)
//	GET  /healthz                       → liveness
//	GET  /readyz                        → readiness (503 while loading or draining)
//	GET  /metrics                       → Prometheus-style text
//	GET  /debug/trace?seconds=N         → Chrome trace-event JSON download
//	GET  /debug/memory                  → engine + device memory JSON
//	GET  /debug/memory?leaks=N          → + N-second tensor-leak capture
//
// Predicting against a bare model name routes through the group's
// rollout state (default/canary/shadow); base@version pins a version.
// The chosen version and route ride back on X-Serving-Model and
// X-Serving-Route headers. Requests carrying X-Tenant-ID are subject to
// that model's weighted-fair admission control; shed requests get 429
// with a Retry-After hint.
//
// Every predict response echoes an X-Request-ID header — honored from
// the inbound request or minted here — and the same ID tags the
// request's stage events in /debug/trace, so one slow HTTP response can
// be traced to its queue wait, batch, and execution.
//
// The server registers a trace recorder and a stats aggregator on the
// engine's telemetry hub, so /metrics carries per-model per-kernel
// breakdowns and measured kernel costs and /debug/trace serves the last
// seconds of execution as a chrome://tracing-loadable file. Those two are
// every observer a served process runs; Close unregisters both.
type Server struct {
	reg        *Registry
	mux        *http.ServeMux
	trace      *telemetry.Recorder
	stats      *telemetry.Stats
	unregister func()
	draining   atomic.Bool

	graphMu sync.Mutex
	graphs  map[string]*servedGraph
}

// NewServer wraps a registry in the HTTP API and attaches the telemetry
// collectors to the global engine's hub.
func NewServer(reg *Registry) *Server {
	s := &Server{
		reg:    reg,
		mux:    http.NewServeMux(),
		trace:  telemetry.NewRecorder(0),
		stats:  telemetry.NewStats(),
		graphs: map[string]*servedGraph{},
	}
	hub := core.Global().Telemetry()
	removeTrace := hub.Register(s.trace)
	removeStats := hub.Register(s.stats)
	s.unregister = func() {
		removeTrace()
		removeStats()
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/memory", s.handleMemory)
	s.mux.HandleFunc("/v1/models", s.handleList)
	s.mux.HandleFunc("/v1/models/", s.handleModel)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("/v1/graphs/", s.handleGraph)
	return s
}

// BeginDrain flips the server into draining: /readyz turns 503 so load
// balancers stop sending traffic, and new predicts are refused with
// ErrShuttingDown while in-flight requests finish. The SIGTERM half of
// graceful shutdown; the caller then waits and closes the registry.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close detaches the server's telemetry collectors from the engine hub.
// Idempotent; the registry is left running (close it separately).
func (s *Server) Close() { s.unregister() }

// Stats exposes the server's kernel-stats aggregator (tests, embedding).
func (s *Server) Stats() *telemetry.Stats { return s.stats }

// Trace exposes the server's trace recorder.
func (s *Server) Trace() *telemetry.Recorder { return s.trace }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is the load-balancer readiness gate: 200 only when every
// registered model version finished loading and the server is not
// draining.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.reg.AllReady():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "loading")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// openMetricsContentType is the negotiated content type for the
// OpenMetrics 1.0 text format.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// wantsOpenMetrics reports whether the request's Accept header asks for
// the OpenMetrics text format (what a Prometheus scraper sends).
func wantsOpenMetrics(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if strings.Contains(accept, "application/openmetrics-text") {
			return true
		}
	}
	return false
}

// handleMetrics serves the metrics exposition. The historical flat text
// format stays the default; a scraper sending
// Accept: application/openmetrics-text gets the same samples as
// OpenMetrics 1.0 text (HELP/TYPE metadata, contiguous families, # EOF).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := s.reg.Snapshots()
	s.graphMu.Lock()
	for name, g := range s.graphs {
		snaps[graphMetricsPrefix+name] = g.metrics.snapshot(0)
	}
	s.graphMu.Unlock()
	expo := buildExposition(snaps, s.stats, s.trace)
	if wantsOpenMetrics(r) {
		w.Header().Set("Content-Type", openMetricsContentType)
		fmt.Fprint(w, expo.RenderOpenMetrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, expo.RenderLegacy())
}

// handleTrace downloads the retained trace ring as Chrome trace-event
// JSON. ?seconds=N restricts the download to events from the last N
// seconds; an absent parameter downloads the whole ring, and an explicit
// non-numeric or non-positive value is a client error (400) rather than a
// silent whole-ring download. The applied window rides back on
// X-Trace-Seconds ("all" for the whole ring) and the ring's overwrite
// count on X-Trace-Dropped-Events, so a truncated capture is detectable
// from the response alone.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var since time.Time
	applied := "all"
	if q := r.URL.Query().Get("seconds"); q != "" {
		sec, err := strconv.ParseFloat(q, 64)
		if err != nil || !(sec > 0) || math.IsInf(sec, 0) {
			http.Error(w, "bad seconds parameter: want a positive number", http.StatusBadRequest)
			return
		}
		since = time.Now().Add(-time.Duration(sec * float64(time.Second)))
		applied = strconv.FormatFloat(sec, 'g', -1, 64)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	w.Header().Set("X-Trace-Seconds", applied)
	w.Header().Set("X-Trace-Dropped-Events", strconv.FormatInt(s.trace.Dropped(), 10))
	//lint:ignore operr headers are already written; a streaming failure here means the client went away and has no recovery
	_ = s.trace.WriteChromeTrace(w, since)
}

// memoryReport is the JSON shape of GET /debug/memory.
type memoryReport struct {
	Backend string                  `json:"backend"`
	Engine  core.MemoryInfo         `json:"engine"`
	Device  *telemetry.DeviceMemory `json:"device,omitempty"`
	Leaks   *telemetry.LeakReport   `json:"leaks,omitempty"`
}

// maxLeakCaptureSeconds caps how long /debug/memory?leaks=N holds the
// engine's single lifetime-tracker slot.
const maxLeakCaptureSeconds = 30

// handleMemory reports the engine's tensor/byte counters and, when the
// active backend exposes device memory (webgl/glsim texture residency,
// recycler occupancy, paging pressure), that too. ?leaks=N additionally
// installs a tensor-lifetime tracker for N seconds (capped) and attaches
// a LeakReport attributing the tensors allocated-and-not-disposed during
// the window to their allocation sites — leak triage against a live
// server, no restart required.
func (s *Server) handleMemory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	eng := core.Global()
	rep := memoryReport{Backend: eng.BackendName(), Engine: eng.Memory()}
	if dm, ok := eng.Backend().(interface {
		DeviceMemory() *telemetry.DeviceMemory
	}); ok {
		rep.Device = dm.DeviceMemory()
	}
	if q := r.URL.Query().Get("leaks"); q != "" {
		sec, err := strconv.ParseFloat(q, 64)
		if err != nil || !(sec > 0) || math.IsInf(sec, 0) {
			http.Error(w, "bad leaks parameter: want a positive number", http.StatusBadRequest)
			return
		}
		if sec > maxLeakCaptureSeconds {
			sec = maxLeakCaptureSeconds
		}
		// Echo the window actually used, so a capped request (?leaks=600)
		// is visible to the caller instead of silently shortened.
		w.Header().Set("X-Leak-Capture-Seconds", strconv.FormatFloat(sec, 'g', -1, 64))
		lt := telemetry.NewLifetimeTracker(1)
		remove, err := eng.TrackLifetimes(lt)
		if err != nil {
			// One capture at a time: the tracker slot is already taken
			// (another capture, or a tfjs-profile -leaks run).
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
			return
		}
		select {
		case <-time.After(time.Duration(sec * float64(time.Second))):
		case <-r.Context().Done():
		}
		remove()
		leaks := lt.Report()
		leaks.Device = rep.Device
		rep.Leaks = leaks
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.Names()})
}

// handleModel routes /v1/models/{name} (status), {name}:predict
// (inference) and the rollout verbs (rollout/promote/canary/shadow/
// evict). The verb rides the last path segment after a colon, as in
// KServe/TF-Serving V1.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	name, verb := rest, ""
	if i := strings.LastIndex(rest, ":"); i >= 0 {
		name, verb = rest[:i], rest[i+1:]
	}
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad model path", http.StatusNotFound)
		return
	}
	switch {
	case verb == "" && r.Method == http.MethodGet:
		m, ok := s.reg.Get(name)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("model %q not found", name)})
			return
		}
		st := m.Status()
		code := http.StatusOK
		if !st.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, st)
	case verb == "predict" && r.Method == http.MethodPost:
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": ErrShuttingDown.Error()})
			return
		}
		res, err := s.reg.Route(name)
		if err != nil {
			writeJSON(w, statusFor(err), map[string]any{"error": fmt.Sprintf("model %q not found", name)})
			return
		}
		s.handlePredict(w, r, res)
	case verb == "rollout" && r.Method == http.MethodGet:
		st, err := s.reg.Rollout(name)
		if err != nil {
			writeJSON(w, statusFor(err), map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	case r.Method == http.MethodPost &&
		(verb == "promote" || verb == "canary" || verb == "shadow" || verb == "evict"):
		s.handleRollout(w, r, name, verb)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleRollout executes one rollout mutation verb against a model group.
func (s *Server) handleRollout(w http.ResponseWriter, r *http.Request, base, verb string) {
	q := r.URL.Query()
	version := q.Get("version")
	var err error
	switch verb {
	case "promote":
		if version == "" {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "promote requires ?version="})
			return
		}
		err = s.reg.Promote(base, version)
	case "canary":
		percent := 0
		if p := q.Get("percent"); p != "" {
			percent, err = strconv.Atoi(p)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad percent parameter"})
				return
			}
		}
		err = s.reg.SetCanary(base, version, percent)
	case "shadow":
		err = s.reg.SetShadow(base, version)
	case "evict":
		idle := time.Duration(0)
		if d := q.Get("idle"); d != "" {
			idle, err = time.ParseDuration(d)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad idle parameter"})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"evicted": s.reg.EvictIdle(idle)})
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrNotFound) {
			code = http.StatusNotFound
		}
		writeJSON(w, code, map[string]any{"error": err.Error()})
		return
	}
	st, rerr := s.reg.Rollout(base)
	if rerr != nil {
		writeJSON(w, statusFor(rerr), map[string]any{"error": rerr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, res RouteResult) {
	m := res.Model
	insts, reqID, ok := s.decodePredict(w, r, m.metrics)
	if !ok {
		return
	}
	// Which version served this, and why — the observable half of a
	// canary rollout.
	w.Header().Set("X-Serving-Model", m.Name())
	w.Header().Set("X-Serving-Route", res.Route)

	baseCtx := r.Context()
	if tenant := r.Header.Get("X-Tenant-ID"); tenant != "" {
		baseCtx = WithTenant(baseCtx, tenant)
	}

	// A freshly resurrected (post-eviction) version is still pulling its
	// artifacts; wait for the lazy reload within the request's deadline.
	if res.Resurrected {
		if err := m.WaitReady(baseCtx); err != nil {
			s.writePredictError(w, err)
			return
		}
	}

	// Shadow traffic: duplicate the instances to the shadow version and
	// discard its responses. Fire-and-forget on a detached context so a
	// slow shadow never holds up (or gets cancelled by) the primary
	// response — exactly the production-soak semantics.
	if res.Shadow != nil {
		shadow := res.Shadow
		shadowCtx := context.WithoutCancel(baseCtx)
		for i := range insts {
			go func(i int) {
				ctx := WithRequestID(shadowCtx, fmt.Sprintf("%s/shadow#%d", reqID, i))
				//lint:ignore operr shadow responses are discarded by definition; errors surface via the shadow model's own metrics
				_, _ = shadow.Predict(ctx, insts[i])
			}(i)
		}
	}

	// Each instance is its own schedulable unit so the micro-batcher can
	// coalesce across requests; a multi-instance request fans out here
	// and joins below. Fanned-out instances get a per-instance suffix so
	// their spans stay distinguishable under one trace ID.
	outs := make([]Instance, len(insts))
	errs := make([]error, len(insts))
	if len(insts) == 1 {
		outs[0], errs[0] = m.Predict(WithRequestID(baseCtx, reqID), insts[0])
	} else {
		var wg sync.WaitGroup
		for i := range insts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx := WithRequestID(baseCtx, fmt.Sprintf("%s#%d", reqID, i))
				outs[i], errs[i] = m.Predict(ctx, insts[i])
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			s.writePredictError(w, err)
			return
		}
	}
	writePredictions(w, fmt.Sprintf("model %q", m.Name()), m.metrics, outs)
}

// decodePredict reads and decodes the predict wire format shared by the
// model and graph endpoints, and stamps the X-Request-ID response header:
// the caller's ID is honored, one is minted otherwise, and it is echoed so
// the caller can correlate this HTTP exchange with the request's stage
// events in /debug/trace. The "decode" stage it observes on metrics is the
// parse alone, not the wait for the client's bytes. ok=false means the
// error response was already written.
func (s *Server) decodePredict(w http.ResponseWriter, r *http.Request, metrics *Metrics) ([]Instance, string, bool) {
	d := decoderPool.Get().(*predictDecoder)
	defer d.release()
	if err := d.readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
				"error": fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "reading request body: " + err.Error()})
		}
		return nil, "", false
	}
	start := time.Now()
	insts, err := d.decode()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return nil, "", false
	}
	metrics.ObserveStage("decode", durMS(start, time.Now()))
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = generateRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	return insts, reqID, true
}

// writePredictions encodes outs and writes the 200 response. Encoding
// finishes before the status line goes out, so an output JSON cannot carry
// (NaN, ±Inf) is a 500 naming its producer ("model ..." or "graph ...")
// rather than a 200 with a truncated body.
func writePredictions(w http.ResponseWriter, producer string, metrics *Metrics, outs []Instance) {
	start := time.Now()
	bufp := encodeBufPool.Get().(*[]byte)
	buf, err := appendPredictions((*bufp)[:0], outs)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("%s: %v", producer, err)})
	} else {
		metrics.ObserveStage("encode", durMS(start, time.Now()))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf) // the status is out; a failed write means the client went away
	}
	if cap(buf) <= poolKeepBytes {
		*bufp = buf
		encodeBufPool.Put(bufp)
	}
}

// writePredictError maps a predict error to its status, attaching the
// Retry-After backoff hint on shed (429) responses.
func (s *Server) writePredictError(w http.ResponseWriter, err error) {
	var shed *ShedError
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(shed.RetryAfter.Seconds()))))
	}
	writeJSON(w, statusFor(err), map[string]any{"error": err.Error()})
}

// statusFor maps serving errors onto HTTP status codes: queue-full and
// tenant sheds are backpressure (429), not-ready is 503, deadline is
// 504, and op errors (bad instance shapes) are the client's fault (400).
func statusFor(err error) int {
	var opErr *core.OpError
	var shed *ShedError
	switch {
	case errors.Is(err, ErrQueueFull), errors.As(err, &shed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &opErr):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
