package glsim

// This file simulates the compute-shader execution model of WebGPU — the
// future web standard the paper identifies as "a promising avenue for
// bridging the gap in performance" (§3.9, §4.3). Unlike fragment shaders
// (Program), a compute program dispatches *workgroups*: each invocation
// covers a tile of the output and may stage data in workgroup-shared
// memory, the two capabilities ("work groups and shared memory access")
// whose absence in WebGL the paper blames for the 3-10x WebGL↔CUDA gap.

// WorkgroupFunc computes one workgroup. in holds the host slices of the
// dispatch's input textures, in order, bound once per dispatch as a
// fragment program's are (Program.Main), so one compiled pipeline serves
// every dispatch of its shapes. group is the workgroup index in
// [0, numGroups); shared is a scratch buffer private to the workgroup (the
// analogue of `var<workgroup>` memory), reused across invocations on the
// same lane. out is the output texture's storage, texel-major: a workgroup
// writes its own values of it and no other group's. On half-float textures
// the device rounds out through fp16 after the dispatch.
type WorkgroupFunc func(in [][]float32, group int, shared, out []float32)

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

// ExecuteCompute binds inputs, the textures p reads, and dispatches p
// writing into out. Workgroups run in parallel across the device's cores;
// each core reuses one shared-memory buffer, cleared at the start of its
// range, as hardware reuses workgroup storage. Timing uses the same
// counted-work model as fragment programs, with NumGroups × ThreadsPerGroup
// invocations. Like Execute it only enqueues, and keeps nothing of inputs
// but the textures in it.
func (d *Device) ExecuteCompute(p *ComputeProgram, inputs []*Texture, out *Texture) {
	d.enqueue(command{cprog: p, out: out}.bind(inputs))
}

func (d *Device) executeCompute(p *ComputeProgram, inputs []*Texture, out *Texture) {
	d.bindMu.Lock()
	defer d.bindMu.Unlock()
	d.bound = d.bindInputs(inputs)
	defer clear(d.bound)
	d.spread(job{cprog: p, out: out, in: d.bound}, p.NumGroups)
	if out.HalfFloat {
		for i, v := range out.data {
			out.data[i] = RoundToFloat16(v)
		}
	}
	d.stats.texels.Add(int64(out.Texels()))
	d.charge(p.Work, p.NumGroups*max(p.ThreadsPerGroup, 1))
}
