package serving

import "repro/internal/native"

// resolves is the number of range-kernel calls the node backends of m's
// replicas have resolved: their memos' misses.
func resolves(m *Model) int64 {
	var n int64
	for _, r := range m.pool.replicas {
		n += r.eng.Backend().(*native.Backend).Resolves()
	}
	return n
}
