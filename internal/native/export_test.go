package native

// ForceScalar turns the AVX2 cores off for the external tests that
// compare whole models across the two bodies; the returned func restores
// the CPUID-selected setting.
func ForceScalar() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}

// VectorCores reports whether the AVX2 cores are in use.
func VectorCores() bool { return useAVX2 }
