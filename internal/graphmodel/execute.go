package graphmodel

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// execState is the per-execution slot environment, preallocated once per
// model and reset by every execute.
type execState struct {
	eng *core.Engine
	bk  kernels.Backend
	env []kernels.Input // per slot
	fed []bool          // per slot
	// owned marks, per root, a container this execution produced and has not
	// yet freed or handed to the engine; env[root] describes it. Fed and
	// weight containers are never owned.
	owned []bool
	// liveBytes is the bytes of owned containers (plus step-internal
	// temporaries): what kernel events add to the engine's byte count, so
	// peak-memory readers see the plan's intermediates.
	liveBytes int64
}

func inputBytes(in kernels.Input) int64 {
	return int64(tensor.ShapeSize(in.Shape) * in.DType.BytesPerElement())
}

// operands fills st.insBuf from the environment.
func (x *execState) operands(st *step) error {
	for i, s := range st.ins {
		in := x.env[s]
		if in.DataID == 0 {
			return fmt.Errorf("graphmodel: node %q input %q not evaluated", st.name, st.inNames[i])
		}
		st.insBuf[i] = in
	}
	return nil
}

// free returns a container this execution produced to the backend.
func (x *execState) free(in kernels.Input) {
	x.bk.DisposeData(in.DataID)
	x.liveBytes -= inputBytes(in)
}

// release frees every container the execution still owns: all of them when
// it failed or panicked, the branches no step consumed when it succeeded.
func (x *execState) release() {
	for r, own := range x.owned {
		if own {
			x.free(x.env[r])
			x.owned[r] = false
		}
	}
}

// kernel runs one kernel through kernels.Dispatch — the engine's own
// dispatch, minus the handle bookkeeping — and accounts for its output.
// dst's Shape is caller-owned scratch; kernels append into it by value.
// Unobserved it costs one atomic load over the dispatch; with an observer on
// the engine's hub (or debug mode on) the same dispatch runs under the
// backend's timer and is reported through the engine, as an eagerly-run
// kernel would be. Kernel failures come back as *core.OpError.
func (x *execState) kernel(name string, ins []kernels.Input, attrs kernels.Attrs, dst *kernels.TensorInfo) error {
	if !x.eng.Telemetry().Active() {
		if err := kernels.Dispatch(x.bk, name, ins, attrs, dst); err != nil {
			return &core.OpError{Kernel: name, Err: err}
		}
		x.liveBytes += inputBytes(kernels.Input(*dst))
		return nil
	}
	var err error
	start := time.Now()
	ti := x.bk.Time(func() { err = kernels.Dispatch(x.bk, name, ins, attrs, dst) })
	if err != nil {
		return &core.OpError{Kernel: name, Err: err}
	}
	added := inputBytes(kernels.Input(*dst))
	x.liveBytes += added
	if nan := x.eng.EmitKernel(name, x.bk, start, ti, ins, *dst, added, x.eng.Memory().NumBytes+x.liveBytes); nan != nil {
		// Debug mode throws at the first kernel that introduces a NaN.
		x.free(kernels.Input(*dst))
		panic(nan)
	}
	return nil
}

// execute runs the plan; the caller holds the execution lock. Feeds and
// weights are migrated to the active backend first (weights once per backend
// identity), intermediates go back to the backend's free lists at their last
// use, and outputs are adopted into engine-tracked tensors at the very end —
// the only tensor handles an execution creates.
func (m *Model) execute(e *core.Engine, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	p := m.plan
	x := &p.state
	bk := e.Backend()
	x.eng, x.bk, x.liveBytes = e, bk, 0
	for i := range x.env {
		x.env[i] = kernels.Input{}
		x.fed[i] = false
		x.owned[i] = false
	}
	for name, t := range feeds {
		if s, ok := p.slots[name]; ok {
			e.EnsureOnBackend(t, bk)
			x.env[s] = kernels.Input{DataID: t.DataID, Shape: t.Shape, DType: t.DType}
			x.fed[s] = true
		}
	}
	if m.weightsOn != bk {
		for _, w := range m.weights {
			e.EnsureOnBackend(w, bk)
		}
		m.weightsOn = bk
	}
	for _, ws := range p.weightSlots {
		if !x.fed[ws.slot] {
			w := m.weights[ws.name]
			x.env[ws.slot] = kernels.Input{DataID: w.DataID, Shape: w.Shape, DType: w.DType}
		}
	}
	defer exec.HintStep(bk, nil)
	defer x.release()
	for i := range p.steps {
		st := &p.steps[i]
		// A feed for any node short-circuits its step.
		if !x.fed[st.out] {
			exec.HintStep(bk, st.hint)
			if err := st.run(x, st); err != nil {
				return nil, err
			}
			x.env[st.out] = kernels.Input(st.info)
			x.owned[st.out] = !st.alias
		}
		for _, r := range st.dispose {
			// Fed and weight roots are never owned, so never freed here.
			if x.owned[r] {
				x.free(x.env[r])
				x.owned[r] = false
			}
		}
	}
	results := make(map[string]*tensor.Tensor, len(p.outSlots))
	for i, out := range m.exec.Outputs {
		s := p.outSlots[i]
		if x.fed[s] {
			results[out] = feeds[out]
			continue
		}
		in := x.env[s]
		if in.DataID == 0 {
			return nil, fmt.Errorf("graphmodel: output %q not evaluated", out)
		}
		// CopyShape: the env shape points into per-step scratch reused by
		// the next execution.
		results[out] = e.AdoptData(bk, in.DataID, tensor.CopyShape(in.Shape), in.DType)
		x.owned[p.root[s]] = false
	}
	return results, nil
}
