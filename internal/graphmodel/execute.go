package graphmodel

import (
	"errors"
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

// kernel runs one kernel and accounts for its output. dst's Shape is
// caller-owned scratch; kernels append into it by value. Unobserved it costs
// one atomic load over the dispatch; with an observer on the engine's hub
// (or debug mode on) the same dispatch runs under the backend's timer and is
// reported through the engine, as an eagerly-run kernel would be. Kernel
// failures come back as *core.OpError.
func (x *execState) kernel(name string, ins []kernels.Input, attrs kernels.Attrs, dst *kernels.TensorInfo) error {
	if !x.eng.Telemetry().Active() {
		if err := x.dispatch(name, ins, attrs, dst); err != nil {
			return &core.OpError{Kernel: name, Err: err}
		}
		x.liveBytes += inputBytes(kernels.Input(*dst))
		return nil
	}
	var err error
	start := time.Now()
	ti := x.bk.Time(func() { err = x.dispatch(name, ins, attrs, dst) })
	if err != nil {
		return &core.OpError{Kernel: name, Err: err}
	}
	added := inputBytes(kernels.Input(*dst))
	x.liveBytes += added
	if nan := x.eng.EmitKernel(name, x.bk, start, ti, ins, []kernels.TensorInfo{*dst}, added, x.eng.Memory().NumBytes+x.liveBytes); nan != nil {
		// Debug mode throws at the first kernel that introduces a NaN.
		x.free(kernels.Input(*dst))
		panic(nan)
	}
	return nil
}

// dispatch picks the kernel the way the engine does, minus the handle
// bookkeeping: the backend's single-output plan form (native), else its
// override (cpu, webgl, webgpu), else the reference kernel through host
// memory.
func (x *execState) dispatch(name string, ins []kernels.Input, attrs kernels.Attrs, dst *kernels.TensorInfo) error {
	var found bool
	var err error
	if pe, ok := x.bk.(kernels.PlanExecutor); ok {
		found, err = pe.RunPlanKernel(name, ins, attrs, dst)
	} else if ov, ok := x.bk.(kernels.Overrider); ok {
		var k kernels.OverrideKernel
		if k, found = ov.KernelOverride(name); found {
			var outs []kernels.TensorInfo
			if outs, err = k(ins, attrs); err == nil {
				if len(outs) != 1 {
					return fmt.Errorf("kernel returned %d outputs, want 1", len(outs))
				}
				setInfo(dst, outs[0].DataID, outs[0].Shape, outs[0].DType)
			}
		}
	}
	if found && !errors.Is(err, kernels.ErrFallback) {
		return err
	}
	ref, ok := kernels.LookupRef(name)
	if !ok {
		return fmt.Errorf("kernel not registered for backend %q and no reference implementation", x.bk.Name())
	}
	bufs := make([]kernels.Buffer, len(ins))
	for i, in := range ins {
		bufs[i] = kernels.Buffer{Data: x.bk.ReadSync(in.DataID), Shape: in.Shape, DType: in.DType}
	}
	outs, err := ref(bufs, attrs)
	if err != nil {
		return err
	}
	if len(outs) != 1 {
		return fmt.Errorf("kernel returned %d outputs, want 1", len(outs))
	}
	id := tensor.NewDataID()
	x.bk.Write(id, outs[0].Data, outs[0].Shape, outs[0].DType)
	setInfo(dst, id, outs[0].Shape, outs[0].DType)
	return nil
}

// setInfo fills a step's output descriptor. The shape is copied, never
// aliased: dst.Shape is step scratch that outlives the kernel's own slice.
func setInfo(dst *kernels.TensorInfo, id tensor.DataID, shape []int, dtype tensor.DataType) {
	dst.DataID, dst.DType = id, dtype
	dst.Shape = append(dst.Shape[:0], shape...)
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
