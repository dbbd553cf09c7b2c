package converter

import (
	"encoding/json"
	"fmt"

	"repro/internal/savedmodel"
)

// DefaultShardBytes is the 4 MB shard size the paper calls out: "packs
// weights into 4MB files, optimizing for browser auto-caching".
const DefaultShardBytes = 4 << 20

// Options configures a conversion.
type Options struct {
	// QuantizationBytes is 0 (none), 1 (uint8, 4x smaller) or
	// 2 (uint16, 2x smaller).
	QuantizationBytes int
	// ShardBytes overrides the shard size; 0 means DefaultShardBytes.
	ShardBytes int
}

// Result summarizes a conversion.
type Result struct {
	// NodesBefore/NodesAfter count graph nodes around pruning.
	NodesBefore, NodesAfter int
	// PrunedNodes lists the dropped node names.
	PrunedNodes []string
	// WeightBytes is the total size of the emitted shard files.
	WeightBytes int64
	// NumShards is the number of weight files written.
	NumShards int
}

// Convert prunes the graph, packs and optionally quantizes its weights and
// writes the web-format artifacts into store.
func Convert(g *savedmodel.GraphDef, store Store, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pruned, prunedNames := Prune(g)
	// The graph being shipped is verified (savedmodel.VerifyGraph): a model
	// the plan cannot run is rejected here, not at the first predict.
	if err := savedmodel.VerifyGraph(pruned); err != nil {
		return nil, fmt.Errorf("converter: refusing to write artifacts: %w", err)
	}
	topo, err := pruned.MarshalTopology()
	if err != nil {
		return nil, err
	}
	// Weights are packed in node order, so a conversion is deterministic.
	var weights []savedmodel.Weight
	for _, n := range pruned.Nodes {
		if n.Op == "Const" {
			weights = append(weights, *pruned.Weights[n.Name])
		}
	}
	res, err := writeArtifact(store, ModelJSON{
		Format:        GraphModel,
		GeneratedBy:   "savedmodel-go",
		ConvertedBy:   "tfjs-go-converter",
		ModelTopology: topo,
	}, weights, opts)
	if err != nil {
		return nil, err
	}
	res.NodesBefore, res.NodesAfter, res.PrunedNodes = len(g.Nodes), len(pruned.Nodes), prunedNames
	return res, nil
}

// Prune returns a copy of the graph containing only nodes reachable from
// the serving outputs — dropping training-only subgraphs exactly as the
// paper's converter "prunes unnecessary operations (e.g. training
// operations)". It also drops now-unreferenced weights.
func Prune(g *savedmodel.GraphDef) (*savedmodel.GraphDef, []string) {
	keep := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if keep[name] {
			return
		}
		keep[name] = true
		if n, ok := g.Node(name); ok {
			for _, in := range n.Inputs {
				visit(in)
			}
		}
	}
	for _, out := range g.Outputs {
		visit(out)
	}
	out := &savedmodel.GraphDef{
		Weights: map[string]*savedmodel.Weight{},
		Inputs:  append([]string(nil), g.Inputs...),
		Outputs: append([]string(nil), g.Outputs...),
	}
	var prunedNames []string
	for _, n := range g.Nodes {
		if keep[n.Name] {
			out.Nodes = append(out.Nodes, n)
			if n.Op == "Const" {
				out.Weights[n.Name] = g.Weights[n.Name]
			}
		} else {
			prunedNames = append(prunedNames, n.Name)
		}
	}
	return out, prunedNames
}

// LoadArtifacts reads a graph-model artifact from store and reconstructs
// the graph with its weights — the loader behind tf.loadModel(url).
func LoadArtifacts(store Store) (*savedmodel.GraphDef, error) {
	model, weights, err := readArtifact(store, GraphModel)
	if err != nil {
		return nil, err
	}
	return graphFrom(model.ModelTopology, weights)
}

// graphFrom decodes a graph model's topology and gives each Const node its
// weight. A weight no Const node uses is an error: the manifest and the
// graph disagree about what the model is.
func graphFrom(topo json.RawMessage, weights []savedmodel.Weight) (*savedmodel.GraphDef, error) {
	g, err := savedmodel.UnmarshalTopology(topo)
	if err != nil {
		return nil, err
	}
	for i, w := range weights {
		if n, ok := g.Node(w.Name); !ok || n.Op != "Const" {
			return nil, fmt.Errorf("converter: weight %q: no Const node uses it", w.Name)
		}
		g.Weights[w.Name] = &weights[i]
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
