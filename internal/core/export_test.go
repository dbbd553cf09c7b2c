package core

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
