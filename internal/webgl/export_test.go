package webgl

// CompiledPrograms is the number of programs in b's memo.
func (b *Backend) CompiledPrograms() int { return b.programs.Len() }
