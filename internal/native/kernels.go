package native

import (
	"sync"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// initKernels installs the optimized kernels: every kernel of the range
// table (kernels.RangeKernels — the convolutions, pools and matmuls, every
// one of their gradients, the reductions, Softmax, the training tail, the
// shape kernels, GatherV2, casts, scans, Select, batch norm and every op of
// the element-wise table) in one loop: a kernel for every reference
// kernel's name, so no call leaves the backend.
//
// Every kernel appends its output shape into out.Shape (caller-owned
// scratch, so the steady-state plan executor re-runs a step without
// allocating) and registers its buffer via outOver. Shapes are always
// appended by value, never aliased from an input, so an output can outlive
// its inputs.
func (b *Backend) initKernels() {
	b.resolved = kernels.NewMemo(func(_ kernels.RangeKernel, r kernels.Resolved, _ []kernels.Input, _ kernels.Attrs) kernels.Resolved {
		return r
	})
	b.table = map[string]kernels.Kernel{}
	for _, k := range kernels.RangeKernels() {
		b.table[k.Name] = b.rangeKernel(k)
	}
}

// rangeKernel is k on node: the call resolved once per signature (the
// backend's memo keeps the Range with the output's shape and dtype), its
// inputs read up front and checked (Range.Check: GatherV2 rejects an index
// out of range with the reference kernel's error, on every dispatch), its
// output filled by k's body over whole units sharded across the worker
// pool — bit-equal to the reference kernel for every worker count, since a
// body computes each value the same wherever its range is cut. A staged
// buffer (kernels.Stage) comes from the scratch recycler, filled once.
func (b *Backend) rangeKernel(k kernels.RangeKernel) kernels.Kernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		r, err := b.resolved.Get(k, inputs, &attrs)
		if err != nil {
			return err
		}
		out.Shape = append(out.Shape[:0], r.Shape...)
		in := b.inputs(inputs)
		defer inLists.Put(in)
		if r.Check != nil {
			if err := r.Check(*in); err != nil {
				return err
			}
		}
		if n := r.Stage.Len(); n > 0 {
			staged := b.scratchF32.Get(n)
			defer b.scratchF32.Put(staged)
			r.Stage.Run(*in, staged)
			*in = append(*in, staged)
		}
		b.parallelFor(r.Fill, *in, b.outOver(out, r.DType), r.Unit, r.Work.Fetches)
		return nil
	}
}

// inputLists recycles the input lists the kernels hand their bodies, so
// that building one allocates nothing. Unlike a sync.Pool it keeps its
// lists under the race detector too, where the allocation gates run as
// well.
type inputLists struct {
	mu   sync.Mutex
	free []*[][]float32
}

var inLists inputLists

// Get returns an empty list.
func (l *inputLists) Get() *[][]float32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		in := l.free[n-1]
		l.free = l.free[:n-1]
		return in
	}
	return new([][]float32)
}

// Put empties in and takes it back.
func (l *inputLists) Put(in *[][]float32) {
	clear(*in)
	*in = (*in)[:0]
	l.mu.Lock()
	l.free = append(l.free, in)
	l.mu.Unlock()
}

// inputs returns the raw buffers of inputs, in order, in a recycled list
// (inLists.Put returns it).
func (b *Backend) inputs(inputs []kernels.Input) *[][]float32 {
	in := inLists.Get()
	for _, x := range inputs {
		*in = append(*in, b.Raw(x.DataID))
	}
	return in
}

// outOver allocates (from the recycler when pooling is on) and registers
// the output buffer for dst — not zeroed: every body writes every output
// value before it reads one. dst.Shape must already hold the output shape.
func (b *Backend) outOver(dst *kernels.TensorInfo, dtype tensor.DataType) []float32 {
	buf := b.AllocOver(tensor.ShapeSize(dst.Shape))
	id := tensor.NewDataID()
	b.WriteOwned(id, buf)
	dst.DataID = id
	dst.DType = dtype
	return buf
}
