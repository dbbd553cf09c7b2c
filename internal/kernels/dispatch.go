package kernels

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// Dispatch runs the named kernel on b and describes its one output in *out.
// It is the whole dispatch policy of Section 3.3, and the only place it is
// written: the backend's own kernel when it has one; when it has none, or
// the kernel declines with ErrFallback, the reference kernel through host
// memory — operands read back, the result written to b as a new container.
// Any other kernel error is returned as it is. The eager engine wraps tensor
// handles and the tape around this call, the graph plan executor slots and
// liveness; neither picks kernels itself. out.Shape is overwritten in place
// (append into out.Shape[:0]) and shares no storage with an input's shape or
// the reference kernel's result.
func Dispatch(b Backend, name string, inputs []Input, attrs Attrs, out *TensorInfo) error {
	if ov, ok := b.(Overrider); ok {
		if k, ok := ov.KernelOverride(name); ok {
			out.DataID = 0
			err := k(inputs, attrs, out)
			if err == nil && out.DataID == 0 {
				return fmt.Errorf("kernel %s: backend %q returned no output", name, b.Name())
			}
			if !errors.Is(err, ErrFallback) {
				return err
			}
		}
	}
	ref, ok := LookupRef(name)
	if !ok {
		return fmt.Errorf("kernel %s: not registered for backend %q and no reference implementation", name, b.Name())
	}
	bufs := make([]Buffer, len(inputs))
	for i, in := range inputs {
		bufs[i] = Buffer{Data: b.ReadSync(in.DataID), Shape: in.Shape, DType: in.DType}
	}
	res, err := ref(bufs, attrs)
	if err != nil {
		return err
	}
	out.Set(tensor.NewDataID(), res.Shape, res.DType)
	b.Write(out.DataID, res.Data, res.Shape, res.DType)
	return nil
}
