// Package planvet statically verifies compiled execution plans — the
// IR-level front of the tfjs-vet suite. The graph executor
// (internal/graphmodel, plan.go) compiles a model into a dataflow
// program over integer slots: alias steps share physical containers
// through union-find roots, reverse-scan liveness frees each intermediate
// at its last consumer, and the freed buffers park on the engine's
// recycler free lists. A single off-by-one in that compilation — a
// dispose point one step early, a root freed twice, an alias cycle —
// silently corrupts inference outputs once the recycler hands the buffer
// to the next tensor. The runtime NaN-poison scribble catches such bugs
// only when the stale read actually happens; this package proves their
// absence for the whole plan before the first execution.
//
// The executor exports its compiled program as a Plan (slots, alias
// roots, step order, dispose points); Verify runs an abstract
// interpretation over it and proves, for every step:
//
//   - every slot a step reads was defined before use (by a weight seed,
//     a feed, or an earlier step's output);
//   - no step reads an alias-group root after its dispose point
//     (use-after-free, which also catches early-dispose defects);
//   - each produced root is disposed exactly once or escapes as an
//     output (double-dispose and leaked-root defects);
//   - alias chains are acyclic and resolve to the root that actually
//     owns the container, and an alias never outlives its root;
//   - feeds and outputs are never parked in the recycler (no dispose
//     point ever frees a placeholder root or an output root).
//
// Violations come back as structured PlanErrors carrying the node, step,
// slot and lifetime interval, aggregated into one *VerifyError.
// planvet is a leaf package (no repro imports), so any plan-producing
// layer can depend on it.
package planvet

import (
	"fmt"
	"strings"
)

// Slot describes one value slot of the compiled program.
type Slot struct {
	// Name is the producing node's name (weights keep their Const node
	// name; feeds their Placeholder name).
	Name string
	// Weight marks slots seeded from uploaded weights before step 0.
	Weight bool
	// Feed marks placeholder slots: the caller feeds their containers,
	// which the plan must never dispose.
	Feed bool
	// Output marks slots read out as model outputs after the last step.
	Output bool
}

// Step is one compiled dispatch: read Ins, define Out, then free every
// root listed in Dispose back to the recycler.
type Step struct {
	// Node is the graph node this step executes, for error attribution.
	Node string
	// Op is the node's op name.
	Op string
	// Ins are the slots read as operands.
	Ins []int
	// Out is the slot this step defines.
	Out int
	// Alias marks steps whose output shares Ins[0]'s physical container
	// (Identity/Reshape/Flatten): no new allocation, same root.
	Alias bool
	// Dispose lists the alias-group roots whose last reader this step is;
	// their containers return to the recycler after the step runs.
	Dispose []int
}

// Plan is the exported compiled program: the exact slot/root/step/dispose
// structure the executor runs, lifted into plain data so it can be
// verified, printed and (in tests) corrupted.
type Plan struct {
	// Model labels errors and the lifetime table (telemetry span or name).
	Model string
	// Slots is the program's value-slot table.
	Slots []Slot
	// Roots maps each slot to its alias-group representative: the slot
	// whose step actually produces (or is seeded with) the physical
	// container. Non-alias outputs are their own root; alias outputs point
	// at their input's root. This is also the scratch assignment — slots
	// sharing a root share one backing buffer.
	Roots []int
	// Steps is the program in execution order.
	Steps []Step
}

// Clone deep-copies the plan, so mutation harnesses can corrupt a copy
// without touching the original.
func (p *Plan) Clone() *Plan {
	cp := &Plan{
		Model: p.Model,
		Slots: append([]Slot(nil), p.Slots...),
		Roots: append([]int(nil), p.Roots...),
		Steps: make([]Step, len(p.Steps)),
	}
	for i, st := range p.Steps {
		st.Ins = append([]int(nil), st.Ins...)
		st.Dispose = append([]int(nil), st.Dispose...)
		cp.Steps[i] = st
	}
	return cp
}

// Kind classifies a plan defect.
type Kind int

const (
	// KindMalformed: a slot or root index is out of range, or a non-alias
	// step's root is not itself — the plan is structurally broken.
	KindMalformed Kind = iota
	// KindUndefinedSlot: a step reads a slot nothing defined (no weight
	// seed, no feed, no earlier step output).
	KindUndefinedSlot
	// KindUseAfterFree: a step reads a root after its dispose point. An
	// early-dispose defect (dispose point before the last reader)
	// surfaces as this kind at the orphaned reader.
	KindUseAfterFree
	// KindDoubleDispose: a root is freed at two dispose points.
	KindDoubleDispose
	// KindAliasCycle: the alias chain from a slot never reaches a fixed
	// point (Roots contains a cycle), or an alias step's root disagrees
	// with its input's root.
	KindAliasCycle
	// KindLeakedRoot: a produced root is neither disposed nor escapes as
	// an output — its container would sit on the heap for the rest of the
	// execution and never return to the recycler at its last use.
	KindLeakedRoot
	// KindProtectedDispose: a dispose point frees a root holding a feed,
	// a weight or an output — caller- or model-owned containers that must
	// never be parked in the recycler.
	KindProtectedDispose
)

// String names the defect kind the way the CLI prints it.
func (k Kind) String() string {
	switch k {
	case KindMalformed:
		return "malformed"
	case KindUndefinedSlot:
		return "undefined-slot"
	case KindUseAfterFree:
		return "use-after-free"
	case KindDoubleDispose:
		return "double-dispose"
	case KindAliasCycle:
		return "alias-cycle"
	case KindLeakedRoot:
		return "leaked-root"
	case KindProtectedDispose:
		return "protected-dispose"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PlanError is one provable defect in a compiled plan, with enough
// structure for tooling: the defect kind, where it bites (node, step,
// slot, root) and the root's lifetime interval as compiled. Step indices
// index Plan.Steps; -1 means "before step 0" (weights, feeds) or "never"
// (DisposedAt of outputs and leaked roots).
type PlanError struct {
	Kind  Kind
	Model string
	// Node is the step (or slot) the defect is attributed to.
	Node string
	// Step is the step index where the defect bites (-1 if none applies).
	Step int
	// Slot is the slot involved (-1 if the defect is root-level only).
	Slot int
	// Root is the alias-group root involved (-1 if not resolved).
	Root int
	// Def, LastUse, DisposedAt describe the root's lifetime as compiled.
	Def        int
	LastUse    int
	DisposedAt int
	// Msg is the human-readable diagnostic.
	Msg string
}

// Error renders the defect with its lifetime interval.
func (e *PlanError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", e.Kind, e.Msg)
	if e.Node != "" {
		fmt.Fprintf(&b, " (node %q", e.Node)
		if e.Step >= 0 {
			fmt.Fprintf(&b, ", step %d", e.Step)
		}
		if e.Slot >= 0 {
			fmt.Fprintf(&b, ", slot %d", e.Slot)
		}
		b.WriteString(")")
	}
	if e.Root >= 0 {
		fmt.Fprintf(&b, " [root %d: def %s, last use %s, disposed %s]",
			e.Root, stepLabel(e.Def), stepLabel(e.LastUse), stepLabel(e.DisposedAt))
	}
	return b.String()
}

func stepLabel(i int) string {
	if i < 0 {
		return "-"
	}
	return fmt.Sprintf("s%d", i)
}

// VerifyError aggregates every defect Verify proved, sorted by step.
type VerifyError struct {
	Model string
	Errs  []*PlanError
}

// Error lists up to eight defects; the rest are summarized.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "planvet: plan %q has %d defect(s):", e.Model, len(e.Errs))
	max := len(e.Errs)
	if max > 8 {
		max = 8
	}
	for _, pe := range e.Errs[:max] {
		b.WriteString("\n  ")
		b.WriteString(pe.Error())
	}
	if len(e.Errs) > max {
		fmt.Fprintf(&b, "\n  ... and %d more", len(e.Errs)-max)
	}
	return b.String()
}

// verifier carries the abstract-interpretation state of one Verify run.
type verifier struct {
	p *Plan
	// resolved[s] is the slot's alias root after chain-following, or -1
	// when the chain cycles.
	resolved []int
	// protected[r] marks roots holding a feed, weight or output.
	protected []bool
	// outRoot[r] marks roots reaching a model output.
	outRoot []bool
	// def[s] is the step defining slot s (-1: seeded before step 0).
	def []int
	// rootDef[r], rootLastUse[r], rootDisposed[r] are the root lifetime
	// intervals (step indices; -1 = before step 0 / never).
	rootDef, rootLastUse, rootDisposed []int
	errs                               []*PlanError
}

// Verify proves the plan's memory-safety invariants and returns nil, or a
// *VerifyError aggregating every defect found.
func Verify(p *Plan) error {
	v := &verifier{p: p}
	v.resolveRoots()
	v.computeLifetimes()
	v.checkSteps()
	v.checkLeaks()
	if len(v.errs) == 0 {
		return nil
	}
	return &VerifyError{Model: p.Model, Errs: v.errs}
}

func (v *verifier) report(e *PlanError) {
	e.Model = v.p.Model
	v.errs = append(v.errs, e)
}

// lifetime fills a PlanError's interval fields for root r.
func (v *verifier) lifetime(e *PlanError, r int) *PlanError {
	e.Root = r
	if r >= 0 && r < len(v.rootDef) {
		e.Def, e.LastUse, e.DisposedAt = v.rootDef[r], v.rootLastUse[r], v.rootDisposed[r]
	} else {
		e.Def, e.LastUse, e.DisposedAt = -1, -1, -1
	}
	return e
}

// resolveRoots follows every slot's alias chain to a fixed point,
// reporting cycles and parent pointers that disagree with the chain.
func (v *verifier) resolveRoots() {
	n := len(v.p.Slots)
	v.resolved = make([]int, n)
	if len(v.p.Roots) != n {
		v.report(&PlanError{Kind: KindMalformed, Step: -1, Slot: -1, Root: -1, Def: -1, LastUse: -1, DisposedAt: -1,
			Msg: fmt.Sprintf("plan has %d slots but %d root entries", n, len(v.p.Roots))})
		for s := range v.resolved {
			v.resolved[s] = -1
		}
		return
	}
	for s := 0; s < n; s++ {
		v.resolved[s] = -1
		cur := s
		// A chain longer than the slot count must revisit a slot: cycle.
		for hop := 0; hop <= n; hop++ {
			r := v.p.Roots[cur]
			if r < 0 || r >= n {
				v.report(&PlanError{Kind: KindMalformed, Node: v.slotName(cur), Step: -1, Slot: cur, Root: -1, Def: -1, LastUse: -1, DisposedAt: -1,
					Msg: fmt.Sprintf("root pointer %d out of range [0,%d)", r, n)})
				cur = -1
				break
			}
			if r == cur { // fixed point: cur owns its container
				v.resolved[s] = cur
				break
			}
			cur = r
		}
		if cur >= 0 && v.resolved[s] < 0 {
			v.report(&PlanError{Kind: KindAliasCycle, Node: v.slotName(s), Step: -1, Slot: s, Root: v.p.Roots[s], Def: -1, LastUse: -1, DisposedAt: -1,
				Msg: fmt.Sprintf("alias chain from slot %d never reaches an owning root", s)})
		}
	}
}

func (v *verifier) slotName(s int) string {
	if s >= 0 && s < len(v.p.Slots) {
		return v.p.Slots[s].Name
	}
	return ""
}

// computeLifetimes derives per-slot definition points and per-root
// lifetime intervals (def, last use, dispose point) from the step list,
// plus the protected/output root sets.
func (v *verifier) computeLifetimes() {
	n := len(v.p.Slots)
	v.protected = make([]bool, n)
	v.outRoot = make([]bool, n)
	v.def = make([]int, n)
	v.rootDef = make([]int, n)
	v.rootLastUse = make([]int, n)
	v.rootDisposed = make([]int, n)
	for s := 0; s < n; s++ {
		v.def[s] = -2 // -2: never defined; -1: seeded before step 0
		v.rootDef[s] = -2
		v.rootLastUse[s] = -1
		v.rootDisposed[s] = -1
	}
	markRoot := func(s int, f func(r int)) {
		if r := v.resolved[s]; r >= 0 {
			f(r)
		}
	}
	for s := 0; s < n; s++ {
		sl := v.p.Slots[s]
		if sl.Weight || sl.Feed {
			v.def[s] = -1
			markRoot(s, func(r int) {
				v.protected[r] = true
				if v.rootDef[r] == -2 {
					v.rootDef[r] = -1
				}
			})
		}
		if sl.Output {
			markRoot(s, func(r int) {
				v.protected[r] = true
				v.outRoot[r] = true
			})
		}
	}
	for i := range v.p.Steps {
		st := &v.p.Steps[i]
		if st.Out >= 0 && st.Out < n {
			if v.def[st.Out] == -2 {
				v.def[st.Out] = i
			}
			markRoot(st.Out, func(r int) {
				if v.rootDef[r] == -2 {
					v.rootDef[r] = i
				}
			})
		}
		for _, s := range st.Ins {
			if s >= 0 && s < n {
				markRoot(s, func(r int) { v.rootLastUse[r] = i })
			}
		}
		for _, r := range st.Dispose {
			if r >= 0 && r < n && v.rootDisposed[r] < 0 {
				v.rootDisposed[r] = i
			}
		}
	}
	// Outputs are read after the last step.
	for s := 0; s < n; s++ {
		if v.p.Slots[s].Output {
			markRoot(s, func(r int) { v.rootLastUse[r] = len(v.p.Steps) })
		}
	}
}

// checkSteps runs the abstract interpretation: walk the program in step
// order tracking, per root, whether its container is live or freed.
func (v *verifier) checkSteps() {
	n := len(v.p.Slots)
	defined := make([]bool, n)   // slot has a value
	disposedAt := make([]int, n) // root freed at step i (-1: live)
	for s := 0; s < n; s++ {
		disposedAt[s] = -1
		if v.p.Slots[s].Weight || v.p.Slots[s].Feed {
			defined[s] = true
		}
	}
	for i := range v.p.Steps {
		st := &v.p.Steps[i]
		// Reads: every operand slot must be defined, and its container
		// must not have been freed by an earlier dispose point.
		for _, s := range st.Ins {
			if s < 0 || s >= n {
				v.report(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: s, Root: -1, Def: -1, LastUse: -1, DisposedAt: -1,
					Msg: fmt.Sprintf("input slot %d out of range [0,%d)", s, n)})
				continue
			}
			if !defined[s] {
				v.report(v.lifetime(&PlanError{Kind: KindUndefinedSlot, Node: st.Node, Step: i, Slot: s,
					Msg: fmt.Sprintf("step reads slot %d (%s) before any definition", s, v.slotName(s))}, v.resolved[s]))
			}
			r := v.resolved[s]
			if r >= 0 && disposedAt[r] >= 0 {
				v.report(v.lifetime(&PlanError{Kind: KindUseAfterFree, Node: st.Node, Step: i, Slot: s,
					Msg: fmt.Sprintf("step reads slot %d (%s) whose container was freed at step %d (%s)",
						s, v.slotName(s), disposedAt[r], v.stepName(disposedAt[r]))}, r))
			}
		}
		// Definition. An alias step must resolve to its input's root (no
		// new container); a non-alias step must own its root.
		if st.Out < 0 || st.Out >= n {
			v.report(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: st.Out, Root: -1, Def: -1, LastUse: -1, DisposedAt: -1,
				Msg: fmt.Sprintf("output slot %d out of range [0,%d)", st.Out, n)})
		} else {
			defined[st.Out] = true
			r := v.resolved[st.Out]
			if st.Alias {
				if len(st.Ins) > 0 && st.Ins[0] >= 0 && st.Ins[0] < n {
					if in := v.resolved[st.Ins[0]]; r < 0 || (in >= 0 && r != in) {
						v.report(v.lifetime(&PlanError{Kind: KindAliasCycle, Node: st.Node, Step: i, Slot: st.Out,
							Msg: fmt.Sprintf("alias step's root disagrees with its input's root (slot %d → root %d, input slot %d → root %d)",
								st.Out, r, st.Ins[0], in)}, r))
					}
				}
			} else if r >= 0 && r != st.Out {
				v.report(v.lifetime(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: st.Out,
					Msg: fmt.Sprintf("non-alias step's output slot %d resolves to foreign root %d", st.Out, r)}, r))
			}
		}
		// Dispose points: each listed root must be live, unprotected and
		// not read by any later step (the later read is reported above as
		// use-after-free when it happens).
		for _, r := range st.Dispose {
			if r < 0 || r >= n {
				v.report(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: -1, Root: r, Def: -1, LastUse: -1, DisposedAt: -1,
					Msg: fmt.Sprintf("dispose entry %d out of range [0,%d)", r, n)})
				continue
			}
			if v.resolved[r] != r {
				v.report(v.lifetime(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: r,
					Msg: fmt.Sprintf("dispose entry %d is not an owning root (resolves to %d)", r, v.resolved[r])}, v.resolved[r]))
				continue
			}
			if v.protected[r] {
				what := "weight"
				switch {
				case v.outRoot[r]:
					what = "output"
				case v.p.Slots[r].Feed:
					what = "feed"
				}
				v.report(v.lifetime(&PlanError{Kind: KindProtectedDispose, Node: st.Node, Step: i, Slot: r,
					Msg: fmt.Sprintf("dispose point would park %s root %d (%s) in the recycler", what, r, v.slotName(r))}, r))
				continue
			}
			if disposedAt[r] >= 0 {
				v.report(v.lifetime(&PlanError{Kind: KindDoubleDispose, Node: st.Node, Step: i, Slot: r,
					Msg: fmt.Sprintf("root %d (%s) already freed at step %d (%s)",
						r, v.slotName(r), disposedAt[r], v.stepName(disposedAt[r]))}, r))
				continue
			}
			if v.rootDef[r] == -2 || (v.rootDef[r] >= 0 && v.rootDef[r] > i) {
				v.report(v.lifetime(&PlanError{Kind: KindMalformed, Node: st.Node, Step: i, Slot: r,
					Msg: fmt.Sprintf("dispose point frees root %d (%s) before it is ever produced", r, v.slotName(r))}, r))
				continue
			}
			disposedAt[r] = i
		}
	}
}

func (v *verifier) stepName(i int) string {
	if i >= 0 && i < len(v.p.Steps) {
		return v.p.Steps[i].Node
	}
	return "?"
}

// checkLeaks proves every produced root is freed exactly once or escapes
// as an output. Roots with neither a dispose point nor output status hold
// their container until the end-of-execution sweep — a silent peak-memory
// leak the reverse-scan liveness should have freed at last use.
func (v *verifier) checkLeaks() {
	n := len(v.p.Slots)
	for i := range v.p.Steps {
		st := &v.p.Steps[i]
		if st.Alias || st.Out < 0 || st.Out >= n {
			continue
		}
		r := v.resolved[st.Out]
		if r < 0 || r != st.Out || v.protected[r] {
			continue
		}
		if v.rootDisposed[r] < 0 && !v.outRoot[r] {
			v.report(v.lifetime(&PlanError{Kind: KindLeakedRoot, Node: st.Node, Step: i, Slot: st.Out,
				Msg: fmt.Sprintf("root %d (%s) is neither freed at a dispose point nor escapes as an output",
					r, v.slotName(r))}, r))
		}
	}
}
