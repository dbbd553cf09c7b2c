// Package graphmodel executes converted models — the inference engine
// behind tf.loadModel(url) for graph-format models (Section 5.1). Loading
// runs a Grappler-style graph optimizer (operator fusion, batch-norm and
// constant folding, pruning; see optimize.go) and compiles the result into
// an execution plan (kernel-level steps over integer slots with
// liveness-based disposal; see plan.go and execute.go), so Execute does no
// graph traversal, no attribute decoding and no rewriting — and a converted
// model runs the same plan on whichever backend is active.
package graphmodel

import (
	"fmt"
	"strings"

	"repro/internal/converter"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/savedmodel"
	"repro/internal/tensor"
)

// config carries load-time options. The execution knobs live in one
// exec.Config so the tf facade and the serving registry hand the same
// struct down unchanged.
type config struct {
	exec exec.Config
	eng  *core.Engine
}

// Option configures Load/New.
type Option func(*config)

// WithExecOptions applies execution options (worker budget, pool poison,
// the optimize gate) to the load. The backend-level knobs are applied to
// the model's engine's backend at load time; the optimize gate steers the
// optimizer.
func WithExecOptions(opts ...exec.Option) Option {
	return func(c *config) {
		for _, o := range opts {
			if o != nil {
				o(&c.exec)
			}
		}
	}
}

// WithExecConfig layers an already-resolved execution config onto the
// load (fields set in cfg override earlier options; unset fields keep
// their values). The serving registry uses this to pass one resolved
// config per model to every replica.
func WithExecConfig(cfg exec.Config) Option {
	return func(c *config) { c.exec = c.exec.Merge(cfg) }
}

// WithEngine binds the model to a specific engine: weights upload to it
// and every Execute runs under its execution lock. This is how the
// serving tier builds replica pools — N copies of one model, each on its
// own engine, executing concurrently. Defaults to the global engine.
func WithEngine(e *core.Engine) Option {
	return func(c *config) { c.eng = e }
}

// Model is an executable converted model.
type Model struct {
	graph *savedmodel.GraphDef // original graph, as converted
	exec  *savedmodel.GraphDef // execution graph (optimized unless disabled)
	order []string             // topological execution order over exec
	nodes map[string]*savedmodel.NodeDef

	// plan is the compiled execution plan: attrs decoded once, every op
	// lowered onto its kernels, liveness annotated, plus the per-model
	// execution scratch the engine execution lock guards.
	plan     *plan
	optStats OptimizeStats

	// weights are uploaded once at load time and shared across calls.
	// weightsOn is the backend they were last migrated to (execute.go).
	weights   map[string]*tensor.Tensor
	weightsOn kernels.Backend

	// span is the telemetry span name every Execute opens: model name plus
	// serving signature, so concurrent serving traces are attributable per
	// model. Recomputed by SetName.
	span string
	name string

	// eng is the engine this model executes on (WithEngine); the global
	// engine by default.
	eng *core.Engine
}

// Load reads artifacts from a converter.Store and prepares the model.
func Load(store converter.Store, opts ...Option) (*Model, error) {
	g, err := converter.LoadArtifacts(store)
	if err != nil {
		return nil, err
	}
	return New(g, opts...)
}

// New prepares a model from an in-memory graph: validates, optimizes
// (unless disabled), compiles the execution plan and uploads the weights.
// The caller's graph is never mutated; the optimizer works on a clone.
func New(g *savedmodel.GraphDef, opts ...Option) (*Model, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.exec.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	eng := cfg.eng
	if eng == nil {
		eng = core.Global()
	}
	// Backend-level knobs (worker budget, pool poison) apply to the engine
	// this model executes on; backends without the hook ignore them.
	exec.Apply(eng.Backend(), cfg.exec)
	m := &Model{graph: g, exec: g, eng: eng}
	m.span = spanName("graphmodel", g)
	if cfg.exec.OptimizeOn() {
		m.exec, m.optStats = optimize(g, eng.Telemetry(), m.span)
	}
	// Verify the execution graph — the one the plan compiles — so the
	// optimizer's fused nodes are checked too, and a model the plan cannot
	// run is rejected here rather than at the first Execute (verify.go).
	if err := verifyGraph(m.exec, eng.Telemetry(), m.span); err != nil {
		return nil, err
	}
	m.nodes = map[string]*savedmodel.NodeDef{}
	for i := range m.exec.Nodes {
		m.nodes[m.exec.Nodes[i].Name] = &m.exec.Nodes[i]
	}
	order, err := topoSort(m.exec)
	if err != nil {
		return nil, err
	}
	m.order = order
	m.plan = compilePlan(m.exec, m.order, m.nodes)
	// Prove the compiled plan's dispose points and alias roots memory-
	// safe before the first execution (see planexport.go); a defective
	// plan is a compiler bug, surfaced here as a load error instead of
	// silent corruption through the recycler.
	if err := m.verifyPlan(eng.Telemetry()); err != nil {
		return nil, err
	}
	m.weights = map[string]*tensor.Tensor{}
	e := eng
	// Upload under the execution lock: loading may race with another
	// model's Execute (the serving registry loads while serving), and the
	// intermediate upload tensor must not be adopted by a foreign scope.
	// Only the execution graph's weights upload — weights the optimizer
	// folded away never reach the backend.
	e.RunExclusive(func() {
		for name, w := range m.exec.Weights {
			t := e.MakeTensor(w.Values, w.Shape, tensor.Float32)
			// Weights outlive every tidy scope.
			m.weights[name] = e.NewVariable(t, "graph/"+name, false).Value()
			t.Dispose()
		}
	})
	return m, nil
}

// Graph exposes the underlying graph definition as converted, before any
// optimization.
func (m *Model) Graph() *savedmodel.GraphDef { return m.graph }

// OptimizedGraph exposes the execution graph: the optimizer's output, or
// the original graph when optimization was disabled.
func (m *Model) OptimizedGraph() *savedmodel.GraphDef { return m.exec }

// OptimizeStats reports what the load-time optimizer did (zero-valued with
// Enabled=false when loaded with exec.WithOptimize(false)).
func (m *Model) OptimizeStats() OptimizeStats { return m.optStats }

// spanName builds the model-scoped telemetry span label: the model name
// plus the serving signature (inputs → outputs).
func spanName(name string, g *savedmodel.GraphDef) string {
	return fmt.Sprintf("%s:%s->%s",
		name, strings.Join(g.Inputs, ","), strings.Join(g.Outputs, ","))
}

// SetName names the model for telemetry: every Execute opens a span
// "<name>:<inputs>-><outputs>" on the engine's hub. The serving registry
// calls this with the registry name so per-model traces and kernel
// breakdowns are attributable.
func (m *Model) SetName(name string) {
	m.name = name
	m.span = spanName(name, m.graph)
}

// Name returns the telemetry name set with SetName ("" until named).
func (m *Model) Name() string { return m.name }

// Span returns the telemetry span label Execute opens.
func (m *Model) Span() string { return m.span }

// Dispose releases the model's uploaded weights. The model must not be
// executed afterwards. Callers racing with concurrent Execute must hold
// the engine's execution lock.
func (m *Model) Dispose() {
	for _, w := range m.weights {
		w.Dispose()
	}
	m.weights = map[string]*tensor.Tensor{}
}

func topoSort(g *savedmodel.GraphDef) ([]string, error) {
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var order []string
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("graphmodel: cycle through node %q", name)
		case 2:
			return nil
		}
		state[name] = 1
		if n, ok := g.Node(name); ok {
			for _, in := range n.Inputs {
				if err := visit(in); err != nil {
					return err
				}
			}
		}
		state[name] = 2
		order = append(order, name)
		return nil
	}
	for _, out := range g.Outputs {
		if err := visit(out); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Predict executes the graph on a single input tensor (models with one
// serving input). Intermediates are tidied; the caller owns the result.
func (m *Model) Predict(x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(m.graph.Inputs) == 0 || len(m.graph.Outputs) == 0 {
		return nil, fmt.Errorf("graphmodel: model declares no serving signature (%d inputs, %d outputs); Predict needs at least one of each",
			len(m.graph.Inputs), len(m.graph.Outputs))
	}
	outs, err := m.Execute(map[string]*tensor.Tensor{m.graph.Inputs[0]: x})
	if err != nil {
		return nil, err
	}
	return outs[m.graph.Outputs[0]], nil
}

// Execute runs the graph with the given input feeds and returns the output
// tensors by name.
//
// Execute is safe for concurrent use from multiple goroutines sharing one
// Model: executions serialize on the model's engine's execution lock (the
// tidy scope stack is per-engine). Feed tensors must be created under
// that engine's RunExclusive when other goroutines may be executing
// concurrently, and output readback likewise. Models bound to different
// engines (WithEngine) execute concurrently with each other.
func (m *Model) Execute(feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	for _, in := range m.graph.Inputs {
		if _, ok := feeds[in]; !ok {
			return nil, fmt.Errorf("graphmodel: missing feed for input %q", in)
		}
	}
	e := m.Engine()
	if e.GradDepth() > 0 {
		// The plan dispatches kernels without engine handles, so nothing
		// would reach the tape: refuse rather than return an untaped result.
		return nil, fmt.Errorf("graphmodel: model %q executed inside a gradient scope; graph models are inference-only and record no tape", m.span)
	}
	var results map[string]*tensor.Tensor
	var err error
	e.RunExclusive(func() {
		// The span opens inside the execution lock and lives on the engine:
		// every event e emits until end is stamped with this model's span,
		// whatever other engines are executing.
		end := e.BeginSpan(m.span)
		defer end()
		results, err = m.execute(e, feeds)
	})
	return results, err
}

// Engine returns the engine this model executes on.
func (m *Model) Engine() *core.Engine {
	if m.eng != nil {
		return m.eng
	}
	return core.Global()
}
