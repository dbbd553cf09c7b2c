package webgl

// CompiledPrograms is the number of programs in b's program cache.
func (b *Backend) CompiledPrograms() int {
	b.programs.mu.Lock()
	defer b.programs.mu.Unlock()
	return len(b.programs.m)
}

// ProgramCacheCap is the cache's bound.
const ProgramCacheCap = programCacheCap
