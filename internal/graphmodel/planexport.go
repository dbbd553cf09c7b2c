package graphmodel

// This file exports the compiled plan as a planvet.Plan — the inspectable
// IR behind `tfjs-vet -plan` — and runs the
// planvet dataflow verifier over it at every load. The verifier proves the
// memory-safety invariants the plan's liveness compilation is trusted
// with: no slot read before definition, no root read after its dispose
// point, dispose-exactly-once, acyclic alias chains, and no
// feed/weight/output container ever parked in the recycler. A defective
// plan is rejected at New, before it can execute, with the
// node/step/slot/lifetime attribution of every violation.

import (
	"fmt"
	"time"

	"repro/internal/planvet"
	"repro/internal/telemetry"
)

// PlanIR exports the compiled program — slots, alias roots, step order,
// dispose points — as a planvet.Plan: the plan every Execute runs, on every
// backend. The returned plan is a fresh copy each call; corrupting it
// (planvet.Corrupt) never touches the model.
func (m *Model) PlanIR() *planvet.Plan {
	p := m.plan
	ir := &planvet.Plan{
		Model: m.span,
		Slots: make([]planvet.Slot, p.numSlots),
		Roots: append([]int(nil), p.root...),
		Steps: make([]planvet.Step, 0, len(p.steps)),
	}
	for name, s := range p.slots {
		ir.Slots[s].Name = name
	}
	for _, ws := range p.weightSlots {
		ir.Slots[ws.slot].Weight = true
	}
	for _, s := range p.outSlots {
		ir.Slots[s].Output = true
	}
	for i := range p.steps {
		st := &p.steps[i]
		if st.op == "Placeholder" {
			ir.Slots[st.out].Feed = true
		}
		ir.Steps = append(ir.Steps, planvet.Step{
			Node:    st.name,
			Op:      st.op,
			Ins:     append([]int(nil), st.ins...),
			Out:     st.out,
			Alias:   st.alias,
			Dispose: append([]int(nil), st.dispose...),
		})
	}
	return ir
}

// verifyPlan runs the planvet dataflow verifier over the compiled plan and
// emits the KindVerify telemetry event ("plan-ok"/"plan-reject", Count =
// steps checked).
func (m *Model) verifyPlan(hub *telemetry.Hub) error {
	ir := m.PlanIR()
	start := time.Now()
	err := planvet.Verify(ir)
	if hub.Active() {
		outcome := "plan-ok"
		if err != nil {
			outcome = "plan-reject"
		}
		hub.Emit(telemetry.Event{
			Kind:  telemetry.KindVerify,
			Name:  outcome,
			Span:  m.span,
			Start: start,
			DurMS: float64(time.Since(start)) / float64(time.Millisecond),
			Count: len(ir.Steps),
		})
	}
	if err != nil {
		return fmt.Errorf("graphmodel: compiled plan failed dataflow verification: %w", err)
	}
	return nil
}
