package webgl

// CompiledPrograms is the number of programs in b's memo.
func (b *Backend) CompiledPrograms() int { return b.programs.Len() }

// ProgramMisses is the number of calls b's memo has resolved.
func (b *Backend) ProgramMisses() int64 { return b.programs.Misses() }
