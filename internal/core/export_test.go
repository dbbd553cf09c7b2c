package core

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/tensor"
)

// TapeSizes reports how many nodes each active tape holds, outermost first.
func (e *Engine) TapeSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	sizes := make([]int, len(e.tapes))
	for i, t := range e.tapes {
		sizes[i] = len(t.nodes)
	}
	return sizes
}

// SpareTapes reports how many cleared tapes the engine keeps, and an error
// naming the first part of one that still holds something: a node of its
// slab, a pointer anywhere in the backing array of one of its slices, an
// entry of one of its maps.
func (e *Engine) SpareTapes() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, t := range e.freeTapes {
		if t.used != 0 || len(t.watched) != 0 || len(t.accum) != 0 {
			return 0, fmt.Errorf("spare tape %d: %d slab nodes used, %d watched ids, %d gradient sums", i, t.used, len(t.watched), len(t.accum))
		}
		for c, chunk := range t.slab {
			for j := range chunk {
				if !reflect.ValueOf(chunk[j]).IsZero() {
					return 0, fmt.Errorf("spare tape %d: slab node %d holds %+v", i, c*tapeChunk+j, chunk[j])
				}
			}
		}
		if slices.ContainsFunc(t.nodes[:cap(t.nodes)], func(n *tapeNode) bool { return n != nil }) {
			return 0, fmt.Errorf("spare tape %d: its node list keeps a node", i)
		}
		if slices.Contains(t.watchedIn[:cap(t.watchedIn)], true) {
			return 0, fmt.Errorf("spare tape %d: its watched scratch is set", i)
		}
		for name, s := range map[string][]*tensor.Tensor{"xs": t.xs, "grads": t.grads, "keep": t.keep, "dys": t.dys} {
			if slices.ContainsFunc(s[:cap(s)], func(x *tensor.Tensor) bool { return x != nil }) {
				return 0, fmt.Errorf("spare tape %d: %s keeps a tensor", i, name)
			}
		}
	}
	return len(e.freeTapes), nil
}
