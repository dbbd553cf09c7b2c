package glsim

import (
	"sync/atomic"
	"testing"
)

func TestComputeProgramWritesTiles(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	out, err := d.CreateTexture(8, 8, R32F)
	if err != nil {
		t.Fatal(err)
	}
	// Each workgroup writes a 16-element stripe with its group id.
	const groups = 4
	d.ExecuteCompute(&ComputeProgram{
		Name:      "stripes",
		NumGroups: groups,
		Main: func(group int, shared []float32, store func(int, float32)) {
			for i := 0; i < 16; i++ {
				store(group*16+i, float32(group))
			}
		},
	}, out)
	vals := d.ReadPixels(out)
	for g := 0; g < groups; g++ {
		for i := 0; i < 16; i++ {
			if vals[g*16+i] != float32(g) {
				t.Fatalf("value at %d = %g, want %g", g*16+i, vals[g*16+i], float32(g))
			}
		}
	}
}

func TestComputeSharedMemoryIsPerWorkgroup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	d := newTestDevice(t, cfg)
	out, _ := d.CreateTexture(16, 16, R32F)
	var raceDetected atomic.Bool
	d.ExecuteCompute(&ComputeProgram{
		Name:       "shared-check",
		NumGroups:  64,
		SharedSize: 8,
		Main: func(group int, shared []float32, store func(int, float32)) {
			// Write our group id into shared memory, do some work, then
			// verify nothing else scribbled on it.
			for i := range shared {
				shared[i] = float32(group)
			}
			s := float32(0)
			for i := 0; i < 100; i++ {
				s += float32(i)
			}
			for i := range shared {
				if shared[i] != float32(group) {
					raceDetected.Store(true)
				}
			}
			store(group, s)
		},
	}, out)
	<-d.FenceSync()
	if raceDetected.Load() {
		t.Fatal("shared memory leaked between concurrently running workgroups")
	}
}

func TestComputeOrderedWithFragmentPrograms(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	a, _ := d.CreateTexture(4, 4, R32F)
	out, _ := d.CreateTexture(4, 4, R32F)
	d.Upload(a, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Fragment program doubles into out; compute program then adds 1
	// in place; strict queue ordering must make both visible.
	d.Execute(&Program{Name: "double", Main: perTexel(func(i int) float32 { return a.FetchFlat(i) * 2 })}, out)
	d.ExecuteCompute(&ComputeProgram{
		Name:      "inc",
		NumGroups: 1,
		Main: func(group int, shared []float32, store func(int, float32)) {
			for i := 0; i < 16; i++ {
				store(i, out.FetchFlat(i)+1)
			}
		},
	}, out)
	vals := d.ReadPixels(out)
	for i := 0; i < 16; i++ {
		want := float32(i+1)*2 + 1
		if vals[i] != want {
			t.Fatalf("element %d = %g, want %g", i, vals[i], want)
		}
	}
}

// TestComputeTimingUsesThreadModel: a compute dispatch occupies
// NumGroups × ThreadsPerGroup invocations. With 4 groups of 256 threads the
// model saturates the 64 cores; with 4 groups of 1 thread it can use 4
// lanes — the same declared work, 16× the modelled time.
func TestComputeTimingUsesThreadModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimulatedCores = 64
	d := newTestDevice(t, cfg)
	out, _ := d.CreateTexture(64, 64, R32F)
	work := Work{Fetches: 6400, Shared: 12800, ALU: 25600}
	dispatch := func(groups, threads int) int64 {
		before := clockAfter(d)
		d.ExecuteCompute(&ComputeProgram{
			Name: "model", NumGroups: groups, ThreadsPerGroup: threads, Work: work,
			Main: func(group int, shared []float32, store func(int, float32)) { store(group, 1) },
		}, out)
		return clockAfter(d) - before
	}
	priced := int64(6400*fetchPS + (12800+25600)*aluPS)
	if got, want := dispatch(4, 256), launchPS+(4*256*invokePS+priced)/64; got != want {
		t.Errorf("4 groups × 256 threads: %d ps, want %d", got, want)
	}
	if got, want := dispatch(4, 1), launchPS+(4*invokePS+priced)/4; got != want {
		t.Errorf("4 groups × 1 thread: %d ps, want %d", got, want)
	}
	if got, want := dispatch(4, 0), launchPS+(4*invokePS+priced)/4; got != want {
		t.Errorf("ThreadsPerGroup 0 means 1: %d ps, want %d", got, want)
	}
}
