package savedmodel

import (
	"testing"

	"repro/internal/kernels"
)

// TestLoweringResolvesToKernels: every kernel the lowering table
// dispatches is an entry of the range table, whose Resolve the verifier
// checks the node with, and has a reference kernel; so has every entry of
// the range table, which the device tiers install in one loop and the cpu
// tier runs as its reference kernel. A kernel name is a string: a
// misspelled one compiles and fails only at its first dispatch, or, in the
// verifier, rejects every graph that uses the op. This test fails on it
// instead.
func TestLoweringResolvesToKernels(t *testing.T) {
	inTable := map[string]bool{}
	for _, k := range kernels.RangeKernels() {
		inTable[k.Name] = true
		if k.Ref == nil {
			t.Errorf("range kernel %q has no reference kernel", k.Name)
		}
	}
	for op, l := range lowerings {
		if len(l.Arity) == 0 {
			t.Errorf("op %q takes no input count", op)
		}
		if (l.Alias == nil) == (l.Kernel == "") {
			t.Errorf("op %q lowers to kernel %q with alias %v: a lowering is exactly one of the two", op, l.Kernel, l.Alias != nil)
			continue
		}
		if l.Alias != nil {
			continue
		}
		if !inTable[l.Kernel] {
			t.Errorf("op %q lowers to kernel %q, which is no range-table entry", op, l.Kernel)
		}
		if _, ok := kernels.LookupRef(l.Kernel); !ok {
			t.Errorf("op %q lowers to kernel %q, which has no reference kernel", op, l.Kernel)
		}
	}
}
