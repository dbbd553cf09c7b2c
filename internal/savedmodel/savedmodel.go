// Package savedmodel defines the source model formats the converter
// ingests — the stand-ins for TensorFlow SavedModels and Keras HDF5 models
// (Section 5.1). A GraphDef is a minimal dataflow-graph description: named
// nodes with op types, input edges, attributes and a weight table.
//
// The format deliberately includes training-only constructs (optimizer
// update nodes, savers) so the converter's pruning step has real work to
// do, exactly as pruning "unnecessary operations (e.g. training
// operations)" does in the paper.
package savedmodel

import (
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/tensor"
)

// NodeDef is one graph node.
type NodeDef struct {
	// Name is the unique node name.
	Name string `json:"name"`
	// Op is the operation type ("Conv2D", "Const", "Placeholder", ...).
	Op string `json:"op"`
	// Inputs are the names of the nodes feeding this one.
	Inputs []string `json:"inputs,omitempty"`
	// Attrs carries op attributes (strides, padding, ...) as JSON decodes
	// them; DecodeAttrs is their one reader.
	Attrs map[string]any `json:"attrs,omitempty"`
	// TrainingOnly marks nodes that exist only for training (optimizer
	// updates, gradient accumulators, savers); the converter prunes any
	// of these not reachable from the serving outputs.
	TrainingOnly bool `json:"training_only,omitempty"`
}

// Weight is a named constant tensor.
type Weight struct {
	Name   string    `json:"name"`
	Shape  []int     `json:"shape"`
	DType  string    `json:"dtype"`
	Values []float32 `json:"-"` // serialized via the weight shards, not JSON
}

// GraphDef is the SavedModel stand-in.
type GraphDef struct {
	// Nodes in topological or arbitrary order; the executor sorts.
	Nodes []NodeDef `json:"nodes"`
	// Weights maps Const node names to their tensors.
	Weights map[string]*Weight `json:"-"`
	// Inputs are the serving input node names (Placeholders).
	Inputs []string `json:"inputs"`
	// Outputs are the serving output node names.
	Outputs []string `json:"outputs"`
}

// Validate checks structural invariants: at least one output, unique
// names, known inputs, weights for every Const. A graph that declares no
// output computes nothing anyone can fetch: an artifact whose topology is
// empty is one.
func (g *GraphDef) Validate() error {
	if len(g.Outputs) == 0 {
		return fmt.Errorf("savedmodel: graph declares no output (%d nodes, %d inputs)", len(g.Nodes), len(g.Inputs))
	}
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("savedmodel: node with empty name")
		}
		if seen[n.Name] {
			return fmt.Errorf("savedmodel: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if !seen[in] {
				return fmt.Errorf("savedmodel: node %q references unknown input %q", n.Name, in)
			}
		}
		if n.Op == "Const" {
			if _, ok := g.Weights[n.Name]; !ok {
				return fmt.Errorf("savedmodel: Const node %q has no weight", n.Name)
			}
		}
	}
	for _, out := range g.Outputs {
		if !seen[out] {
			return fmt.Errorf("savedmodel: unknown output %q", out)
		}
	}
	for _, in := range g.Inputs {
		if !seen[in] {
			return fmt.Errorf("savedmodel: unknown input %q", in)
		}
	}
	return nil
}

// Node returns the node with the given name.
func (g *GraphDef) Node(name string) (*NodeDef, bool) {
	for i := range g.Nodes {
		if g.Nodes[i].Name == name {
			return &g.Nodes[i], true
		}
	}
	return nil, false
}

// Clone deep-copies the graph structure: nodes (with their input lists and
// attr maps) and weight records (shape slices copied, value slices shared —
// weight data is immutable once loaded, and a rewrite pass that folds values
// installs a fresh slice rather than mutating in place). Rewriting passes
// work on a clone so the caller's GraphDef is never mutated.
func (g *GraphDef) Clone() *GraphDef {
	c := &GraphDef{
		Nodes:   make([]NodeDef, len(g.Nodes)),
		Weights: make(map[string]*Weight, len(g.Weights)),
		Inputs:  append([]string(nil), g.Inputs...),
		Outputs: append([]string(nil), g.Outputs...),
	}
	for i, n := range g.Nodes {
		cn := n
		cn.Inputs = append([]string(nil), n.Inputs...)
		cn.Attrs = maps.Clone(n.Attrs)
		c.Nodes[i] = cn
	}
	for name, w := range g.Weights {
		cw := *w
		cw.Shape = append([]int(nil), w.Shape...)
		c.Weights[name] = &cw
	}
	return c
}

// Consumers maps each node name to the names of the nodes consuming it. A
// node feeding the same consumer twice is counted once per edge; graph
// outputs are not counted (rewriters must check Outputs separately).
func (g *GraphDef) Consumers() map[string][]string {
	consumers := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			consumers[in] = append(consumers[in], n.Name)
		}
	}
	return consumers
}

// NumParams counts total weight elements.
func (g *GraphDef) NumParams() int {
	n := 0
	for _, w := range g.Weights {
		n += tensor.ShapeSize(w.Shape)
	}
	return n
}

// MarshalTopology serializes the graph structure (without weight values).
func (g *GraphDef) MarshalTopology() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// UnmarshalTopology parses a serialized graph structure. Weights must be
// attached separately (the converter loads them from the shard files).
func UnmarshalTopology(data []byte) (*GraphDef, error) {
	var g GraphDef
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("savedmodel: parsing topology: %w", err)
	}
	g.Weights = map[string]*Weight{}
	return &g, nil
}
