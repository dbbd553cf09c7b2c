package serving

// This file implements inference graphs: server-side composition of
// served models into one request, KServe-inference-graph style. A graph
// is a tree of nodes — model (leaf), sequence (preprocessor → model →
// postprocessor chains), ensemble (parallel fan-out with a combiner) and
// switch (content-based routing) — executed per instance with every
// model stage riding the existing request-flow tracing: stage N of graph
// g under request R carries trace ID "R/g/<path>", so /debug/trace shows
// the whole fan-through as one linked family.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Graph node kinds.
const (
	NodeModel    = "model"
	NodeSequence = "sequence"
	NodeEnsemble = "ensemble"
	NodeSwitch   = "switch"
)

// Ensemble combiners.
const (
	CombineAverage = "average"
	CombineSum     = "sum"
	CombineConcat  = "concat"
)

// SwitchCase is one arm of a switch node: taken when the selector value
// equals Value.
type SwitchCase struct {
	Value float64    `json:"value"`
	Node  *GraphNode `json:"node"`
}

// GraphNode is one node of an inference graph.
type GraphNode struct {
	// Kind is model, sequence, ensemble or switch.
	Kind string `json:"kind"`
	// Model names the served model (routing applies: bare names follow
	// the group's rollout, base@version pins). Kind "model" only.
	Model string `json:"model,omitempty"`
	// Steps chain for kind "sequence": each step's output feeds the next.
	Steps []*GraphNode `json:"steps,omitempty"`
	// Members fan out in parallel for kind "ensemble".
	Members []*GraphNode `json:"members,omitempty"`
	// Combine merges ensemble member outputs: average or sum require
	// identical member shapes and merge elementwise; concat flattens and
	// concatenates into one 1-D instance.
	Combine string `json:"combine,omitempty"`
	// SelectIndex picks which element of the incoming instance a switch
	// node compares against its cases (default 0: the first value).
	SelectIndex int `json:"select_index,omitempty"`
	// Cases are the switch arms; Default runs when none match. A switch
	// with no matching arm and no default fails the request.
	Cases   []SwitchCase `json:"cases,omitempty"`
	Default *GraphNode   `json:"default,omitempty"`
}

// GraphSpec is one named inference graph.
type GraphSpec struct {
	Name string     `json:"name"`
	Root *GraphNode `json:"root"`
}

// validate checks a node tree's structure (model existence is checked at
// request time — models load asynchronously and versions roll).
func (n *GraphNode) validate(path string) error {
	if n == nil {
		return fmt.Errorf("serving: graph node %s is null", path)
	}
	switch n.Kind {
	case NodeModel:
		if n.Model == "" {
			return fmt.Errorf("serving: graph node %s: model node needs a model name", path)
		}
	case NodeSequence:
		if len(n.Steps) == 0 {
			return fmt.Errorf("serving: graph node %s: sequence needs steps", path)
		}
		for i, step := range n.Steps {
			if err := step.validate(fmt.Sprintf("%s.%d", path, i)); err != nil {
				return err
			}
		}
	case NodeEnsemble:
		if len(n.Members) == 0 {
			return fmt.Errorf("serving: graph node %s: ensemble needs members", path)
		}
		switch n.Combine {
		case CombineAverage, CombineSum, CombineConcat:
		case "":
			return fmt.Errorf("serving: graph node %s: ensemble needs a combine mode", path)
		default:
			return fmt.Errorf("serving: graph node %s: unknown combine %q", path, n.Combine)
		}
		for i, m := range n.Members {
			if err := m.validate(fmt.Sprintf("%s.%d", path, i)); err != nil {
				return err
			}
		}
	case NodeSwitch:
		if len(n.Cases) == 0 && n.Default == nil {
			return fmt.Errorf("serving: graph node %s: switch needs cases or a default", path)
		}
		for i, c := range n.Cases {
			if err := c.Node.validate(fmt.Sprintf("%s.case%d", path, i)); err != nil {
				return err
			}
		}
		if n.Default != nil {
			if err := n.Default.validate(path + ".default"); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("serving: graph node %s: unknown kind %q", path, n.Kind)
	}
	return nil
}

// servedGraph is a registered graph and the metrics of its HTTP endpoint
// (the wire-codec stages; model stages land on each model's own Metrics).
type servedGraph struct {
	spec    GraphSpec
	metrics *Metrics
}

// graphMetricsPrefix namespaces graphs among the /metrics model labels;
// model names cannot contain a slash.
const graphMetricsPrefix = "graph/"

// RegisterGraph adds (or replaces) a named inference graph on the
// server.
func (s *Server) RegisterGraph(spec GraphSpec) error {
	if spec.Name == "" || strings.ContainsAny(spec.Name, "/:") {
		return fmt.Errorf("serving: bad graph name %q", spec.Name)
	}
	if err := spec.Root.validate("root"); err != nil {
		return err
	}
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	s.graphs[spec.Name] = &servedGraph{spec: spec, metrics: NewMetrics()}
	return nil
}

// UnregisterGraph removes a named graph.
func (s *Server) UnregisterGraph(name string) {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	delete(s.graphs, name)
}

// graphNames lists registered graphs, sorted.
func (s *Server) graphNames() []string {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	out := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// runGraphNode executes one node for one instance. path locates the node
// in the tree; every model stage's trace ID is "<reqID>/<path>" so the
// request's hops through the graph link up in /debug/trace.
func (s *Server) runGraphNode(ctx context.Context, n *GraphNode, inst Instance, reqID, path string) (Instance, error) {
	switch n.Kind {
	case NodeModel:
		res, err := s.reg.Route(n.Model)
		if err != nil {
			return Instance{}, fmt.Errorf("serving: graph node %s: model %q: %w", path, n.Model, err)
		}
		if res.Resurrected {
			if err := res.Model.WaitReady(ctx); err != nil {
				return Instance{}, fmt.Errorf("serving: graph node %s: model %q: %w", path, n.Model, err)
			}
		}
		out, err := res.Model.Predict(WithRequestID(ctx, reqID+"/"+path), inst)
		if err != nil {
			return Instance{}, fmt.Errorf("serving: graph node %s: model %q: %w", path, n.Model, err)
		}
		return out, nil

	case NodeSequence:
		cur := inst
		for i, step := range n.Steps {
			out, err := s.runGraphNode(ctx, step, cur, reqID, fmt.Sprintf("%s.%d", path, i))
			if err != nil {
				return Instance{}, err
			}
			cur = out
		}
		return cur, nil

	case NodeEnsemble:
		outs := make([]Instance, len(n.Members))
		errs := make([]error, len(n.Members))
		var wg sync.WaitGroup
		for i, m := range n.Members {
			wg.Add(1)
			go func(i int, m *GraphNode) {
				defer wg.Done()
				outs[i], errs[i] = s.runGraphNode(ctx, m, inst, reqID, fmt.Sprintf("%s.%d", path, i))
			}(i, m)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Instance{}, err
			}
		}
		return combineInstances(n.Combine, outs, path)

	case NodeSwitch:
		idx := n.SelectIndex
		if idx < 0 || idx >= len(inst.Values) {
			return Instance{}, fmt.Errorf("serving: graph node %s: select_index %d out of range for instance of %d values",
				path, idx, len(inst.Values))
		}
		v := float64(inst.Values[idx])
		for i, c := range n.Cases {
			if v == c.Value {
				return s.runGraphNode(ctx, c.Node, inst, reqID, fmt.Sprintf("%s.case%d", path, i))
			}
		}
		if n.Default != nil {
			return s.runGraphNode(ctx, n.Default, inst, reqID, path+".default")
		}
		return Instance{}, fmt.Errorf("serving: graph node %s: no case matches selector %v and no default", path, v)
	}
	return Instance{}, fmt.Errorf("serving: graph node %s: unknown kind %q", path, n.Kind)
}

// combineInstances merges ensemble member outputs.
func combineInstances(mode string, outs []Instance, path string) (Instance, error) {
	switch mode {
	case CombineAverage, CombineSum:
		base := outs[0]
		merged := append([]float32(nil), base.Values...)
		for _, o := range outs[1:] {
			if len(o.Values) != len(merged) {
				return Instance{}, fmt.Errorf("serving: graph node %s: %s requires equal member outputs (%d vs %d values)",
					path, mode, len(merged), len(o.Values))
			}
			for i, v := range o.Values {
				merged[i] += v
			}
		}
		if mode == CombineAverage {
			n := float32(len(outs))
			for i := range merged {
				merged[i] /= n
			}
		}
		return Instance{Values: merged, Shape: append([]int(nil), base.Shape...)}, nil
	case CombineConcat:
		var merged []float32
		for _, o := range outs {
			merged = append(merged, o.Values...)
		}
		return Instance{Values: merged, Shape: []int{len(merged)}}, nil
	}
	return Instance{}, fmt.Errorf("serving: graph node %s: unknown combine %q", path, mode)
}

// handleGraphList serves GET /v1/graphs.
func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.graphNames()})
}

// handleGraph serves GET /v1/graphs/{name} (the spec) and
// POST /v1/graphs/{name}:predict (execution), mirroring the model
// endpoint's verb-after-colon convention and predict wire format.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	name, verb := rest, ""
	if i := strings.LastIndex(rest, ":"); i >= 0 {
		name, verb = rest[:i], rest[i+1:]
	}
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad graph path", http.StatusNotFound)
		return
	}
	s.graphMu.Lock()
	g, ok := s.graphs[name]
	s.graphMu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("graph %q not found", name)})
		return
	}
	switch {
	case verb == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, g.spec)
	case verb == "predict" && r.Method == http.MethodPost:
		s.handleGraphPredict(w, r, g)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleGraphPredict runs every instance through the graph. Instances
// fan out concurrently (each instance's model stages still coalesce into
// batches with everyone else's via the per-model schedulers).
func (s *Server) handleGraphPredict(w http.ResponseWriter, r *http.Request, g *servedGraph) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": ErrShuttingDown.Error()})
		return
	}
	insts, reqID, ok := s.decodePredict(w, r, g.metrics)
	if !ok {
		return
	}
	ctx := r.Context()
	if tenant := r.Header.Get("X-Tenant-ID"); tenant != "" {
		ctx = WithTenant(ctx, tenant)
	}
	outs := make([]Instance, len(insts))
	errs := make([]error, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := reqID
			if len(insts) > 1 {
				id = fmt.Sprintf("%s#%d", reqID, i)
			}
			outs[i], errs[i] = s.runGraphNode(ctx, g.spec.Root, insts[i], id+"/"+g.spec.Name, "root")
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.writePredictError(w, err)
			return
		}
	}
	writePredictions(w, fmt.Sprintf("graph %q", g.spec.Name), g.metrics, outs)
}
