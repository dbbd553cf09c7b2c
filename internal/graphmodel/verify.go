package graphmodel

import (
	"time"

	"repro/internal/savedmodel"
	"repro/internal/telemetry"
)

// This file wires the graph verifier (savedmodel.VerifyGraph: each node
// checked by its lowered kernel's own Resolve) into model loading. New
// always runs it over the execution graph (after optimization, so the
// checked graph is exactly the one the compiled plan executes) and rejects
// a model the plan cannot run with a node diagnostic before the first
// Execute. The pass is recorded on the engine's telemetry hub as a
// telemetry.KindVerify event carrying the node count and outcome.

// verifyGraph runs the verifier over the execution graph and emits the
// KindVerify telemetry event: Name is the outcome ("ok" or "reject"),
// Count the number of nodes checked, Span the model span.
func verifyGraph(g *savedmodel.GraphDef, hub *telemetry.Hub, span string) error {
	start := time.Now()
	err := savedmodel.VerifyGraph(g)
	if hub.Active() {
		outcome := "ok"
		if err != nil {
			outcome = "reject"
		}
		hub.Emit(telemetry.Event{
			Kind:  telemetry.KindVerify,
			Name:  outcome,
			Span:  span,
			Start: start,
			DurMS: float64(time.Since(start)) / float64(time.Millisecond),
			Count: len(g.Nodes),
		})
	}
	return err
}
