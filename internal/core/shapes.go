package core

import (
	"encoding/binary"
	"sync"

	"repro/internal/kernels"
)

// A shapeTable interns the operand shapes of an engine's kernel events
// (Engine.shapes). A served model dispatches the same few hundred call
// signatures over and over (MobileNet α=0.25 has about 22 per batch size,
// ≈352 over batches of 1 to 16), so an observed dispatch looks its shapes
// up here instead of copying them: a hit allocates nothing. The table maps
// the bytes of a call's shapes to one [][]int — the inputs' shapes, then
// the output's — that is never written again, which is what lets
// observers keep it (the trace ring, debug mode's KernelRecord) while
// callers reuse their own shape storage. Bounded like the kernel memo: at
// kernels.MemoCap signatures it is cleared, and slices already handed out
// stay valid.
type shapeTable struct {
	mu sync.Mutex
	// key is the buffer a lookup's key is built in.
	key []byte
	m   map[string][][]int
}

// get returns the interned shapes of a call with inputs ins and output
// out: ins' shapes in order, then out's, len(ins)+1 slices in all.
func (t *shapeTable) get(ins []kernels.Input, out []int) [][]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.key = binary.AppendUvarint(t.key[:0], uint64(len(ins)))
	for _, in := range ins {
		t.key = appendShape(t.key, in.Shape)
	}
	t.key = appendShape(t.key, out)
	if s, ok := t.m[string(t.key)]; ok {
		return s
	}
	if t.m == nil || len(t.m) >= kernels.MemoCap {
		t.m = make(map[string][][]int)
	}
	// A miss: two allocations hold every shape of the signature.
	rank := len(out)
	for _, in := range ins {
		rank += len(in.Shape)
	}
	shapes, dims := make([][]int, 0, len(ins)+1), make([]int, 0, rank)
	add := func(shape []int) {
		dims = append(dims, shape...)
		shapes = append(shapes, dims[len(dims)-len(shape):len(dims):len(dims)])
	}
	for _, in := range ins {
		add(in.Shape)
	}
	add(out)
	t.m[string(t.key)] = shapes
	return shapes
}

// appendShape appends a shape's rank, then its dims.
func appendShape(key []byte, shape []int) []byte {
	key = binary.AppendUvarint(key, uint64(len(shape)))
	for _, d := range shape {
		key = binary.AppendVarint(key, int64(d))
	}
	return key
}
