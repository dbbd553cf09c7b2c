package glsim

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
// run in parallel across the device's cores; each core reuses one
// shared-memory buffer, cleared at the start of its range, as hardware
// reuses workgroup storage. Timing uses the same counted-work model as
// fragment programs, with NumGroups × ThreadsPerGroup invocations.
func (d *Device) ExecuteCompute(p *ComputeProgram, out *Texture) {
	d.enqueue(command{cprog: p, out: out})
}

func (d *Device) executeCompute(p *ComputeProgram, out *Texture) {
	d.bindMu.Lock()
	defer d.bindMu.Unlock()
	d.spread(job{cprog: p, out: out, store: out.store}, p.NumGroups)
	d.stats.texels.Add(int64(out.Texels()))
	d.charge(p.Work, p.NumGroups*max(p.ThreadsPerGroup, 1))
}
