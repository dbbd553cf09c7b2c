package kernels

import "fmt"

// Dispatch runs the named kernel on b and describes its one output in *out.
// It is the whole dispatch policy of Section 3.3, and the only place it is
// written: the backend's own kernel, and nothing else. Every tier owns
// every kernel — each installs the range table, node and webgl its
// bodies, the cpu tier its reference kernels on its host buffers — so no
// call crosses to the host behind a device's back, and a name the backend
// has no kernel for is an error naming both. A kernel's error is returned as it is. The
// eager engine wraps tensor handles and the tape around this call, the
// graph plan executor slots and liveness; neither picks kernels itself.
// out.Shape is overwritten in place (append into out.Shape[:0]) and shares
// no storage with an input's shape.
func Dispatch(b Backend, name string, inputs []Input, attrs Attrs, out *TensorInfo) error {
	k, ok := b.Kernel(name)
	if !ok {
		return fmt.Errorf("kernel %s: not registered for backend %q", name, b.Name())
	}
	out.DataID = 0
	if err := k(inputs, attrs, out); err != nil {
		return err
	}
	if out.DataID == 0 {
		return fmt.Errorf("kernel %s: backend %q returned no output", name, b.Name())
	}
	return nil
}
