package glsim

import "sync"

// This file simulates the compute-shader execution model of WebGPU — the
// future web standard the paper identifies as "a promising avenue for
// bridging the gap in performance" (§3.9, §4.3). Unlike fragment shaders
// (Program), a compute program dispatches *workgroups*: each invocation
// covers a tile of the output and may stage data in workgroup-shared
// memory, the two capabilities ("work groups and shared memory access")
// whose absence in WebGL the paper blames for the 3-10x WebGL↔CUDA gap.

// WorkgroupFunc computes one workgroup. group is the workgroup index in
// [0, numGroups); shared is a scratch buffer private to the workgroup (the
// analogue of `var<workgroup>` memory), reused across invocations on the
// same lane. The function writes its outputs through store(flatIndex, v).
type WorkgroupFunc func(group int, shared []float32, store func(i int, v float32))

// ComputeProgram is a compiled compute pipeline.
type ComputeProgram struct {
	Name string
	// NumGroups is the dispatch size.
	NumGroups int
	// ThreadsPerGroup is the workgroup size the timing model assumes
	// (invocations per group, e.g. a 16x16 tile = 256); 0 means 1.
	ThreadsPerGroup int
	// SharedSize is the per-workgroup scratch length in floats.
	SharedSize int
	// Work is what one dispatch costs the modelled device.
	Work Work
	Main WorkgroupFunc
}

// ExecuteCompute dispatches a compute program writing into out. Workgroups
// run in parallel across the device's workers; each worker reuses one
// shared-memory buffer, as hardware reuses workgroup storage. Timing uses
// the same counted-work model as fragment programs, with NumGroups ×
// ThreadsPerGroup invocations.
func (d *Device) ExecuteCompute(p *ComputeProgram, out *Texture) {
	d.submit(func() {
		groups := p.NumGroups
		workers := d.workers
		if workers > groups {
			workers = groups
		}
		store := func(i int, v float32) { out.store(i, v) }
		if workers <= 1 {
			shared := make([]float32, p.SharedSize)
			for g := 0; g < groups; g++ {
				p.Main(g, shared, store)
			}
		} else {
			var wg sync.WaitGroup
			chunk := (groups + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > groups {
					hi = groups
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					shared := make([]float32, p.SharedSize)
					for g := lo; g < hi; g++ {
						p.Main(g, shared, store)
					}
				}(lo, hi)
			}
			wg.Wait()
		}
		d.stats.texels.Add(int64(out.Texels()))
		threads := p.ThreadsPerGroup
		if threads < 1 {
			threads = 1
		}
		d.charge(p.Work, groups*threads)
	})
}
