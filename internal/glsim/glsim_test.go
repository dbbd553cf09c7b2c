package glsim

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bufpool"
)

func newTestDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	cfg.TextureAllocCost = -1 // texture creation is free unless a test prices it
	d := NewDevice(cfg)
	t.Cleanup(d.Close)
	return d
}

// perTexel adapts a one-value-per-texel function (R32F outputs) to the
// range form.
func perTexel(f func(i int) float32) func(in [][]float32, lo, hi int, dst []float32) {
	return func(_ [][]float32, lo, hi int, dst []float32) {
		for i := range dst {
			dst[i] = f(lo + i)
		}
	}
}

// clockAfter drains the queue and reads the device clock.
func clockAfter(d *Device) int64 {
	<-d.FenceSync()
	return d.ClockPS()
}

func TestFloat16RoundTripKnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{1, 1},
		{-2, -2},
		{0.5, 0.5},
		{65504, 65504},         // max half
		{1e-8, 0},              // underflows to zero — the §4.1.3 bug
		{1e-4, 1.00016594e-04}, // representable (as the nearest half)
		{float32(math.Inf(1)), float32(math.Inf(1))},
	}
	for _, c := range cases {
		got := RoundToFloat16(c.in)
		if math.Abs(float64(got-c.want)) > 1e-7*math.Abs(float64(c.want))+1e-12 {
			t.Errorf("RoundToFloat16(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(float64(RoundToFloat16(float32(math.NaN())))) {
		t.Error("NaN must round to NaN")
	}
}

// TestFloat16RoundTripProperty: for values in the half-precision normal
// range, a double round-trip is idempotent and the relative error of the
// first rounding is bounded by 2^-11.
func TestFloat16RoundTripProperty(t *testing.T) {
	prop := func(v float32) bool {
		f := float64(v)
		if math.IsNaN(f) || math.Abs(f) > 60000 || (f != 0 && math.Abs(f) < 6.2e-5) {
			return true // outside the normal half range
		}
		once := RoundToFloat16(v)
		twice := RoundToFloat16(once)
		if once != twice {
			return false
		}
		if v == 0 {
			return once == 0
		}
		relErr := math.Abs(float64(once-v)) / math.Abs(f)
		return relErr <= 1.0/2048+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCommandQueueOrdering(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, err := d.CreateTexture(4, 4, R32F)
	if err != nil {
		t.Fatal(err)
	}
	// Upload, then a program that doubles, then read: strict ordering
	// must make the read observe the doubled values.
	vals := make([]float32, 16)
	for i := range vals {
		vals[i] = float32(i)
	}
	d.Upload(tex, vals)
	out, err := d.CreateTexture(4, 4, R32F)
	if err != nil {
		t.Fatal(err)
	}
	d.Execute(&Program{Name: "double", Main: perTexel(func(i int) float32 { return tex.FetchFlat(i) * 2 })}, nil, out)
	got := d.ReadPixels(out)
	for i := range vals {
		if got[i] != vals[i]*2 {
			t.Fatalf("element %d: got %g want %g", i, got[i], vals[i]*2)
		}
	}
}

func TestFenceSyncFiresAfterPriorCommands(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(64, 64, R32F)
	var ran atomic.Bool
	d.Execute(&Program{Name: "slow", Main: perTexel(func(i int) float32 {
		if i == 0 {
			time.Sleep(5 * time.Millisecond)
			ran.Store(true)
		}
		return 0
	})}, nil, tex)
	<-d.FenceSync()
	if !ran.Load() {
		t.Fatal("fence fired before prior program completed")
	}
}

func TestDisjointTimerQuery(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(32, 32, R32F)
	d.Execute(&Program{Name: "before", Work: Work{ALU: 1 << 20}, Main: perTexel(func(i int) float32 { return 0 })}, nil, tex)
	q := d.BeginQuery()
	work := Work{Fetches: 2048, ALU: 4096}
	d.Execute(&Program{Name: "work", Work: work, Main: perTexel(func(i int) float32 { return float32(i) })}, nil, tex)
	d.EndQuery(q)
	d.Execute(&Program{Name: "after", Work: Work{ALU: 1 << 20}, Main: perTexel(func(i int) float32 { return 0 })}, nil, tex)
	deadline := time.Now().Add(2 * time.Second)
	for !q.Done() {
		if time.Now().After(deadline) {
			t.Fatal("query never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The query window holds exactly the one program between its marks.
	wantPS := int64(launchPS + (1024*invokePS+2048*fetchPS+4096*aluPS)/64)
	if got := q.ElapsedMS(); got != float64(wantPS)/1e9 {
		t.Fatalf("query elapsed = %g ms, want %g", got, float64(wantPS)/1e9)
	}
}

func TestTextureAccounting(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	if d.NumTextures() != 0 || d.TextureBytes() != 0 {
		t.Fatal("fresh device should have no textures")
	}
	tex, err := d.CreateTexture(10, 10, RGBA32F)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(10 * 10 * 4 * 4)
	if d.NumTextures() != 1 || d.TextureBytes() != wantBytes {
		t.Fatalf("after create: %d textures, %d bytes (want 1, %d)", d.NumTextures(), d.TextureBytes(), wantBytes)
	}
	d.DeleteTexture(tex)
	<-d.FenceSync()
	if d.NumTextures() != 0 || d.TextureBytes() != 0 {
		t.Fatalf("after delete: %d textures, %d bytes", d.NumTextures(), d.TextureBytes())
	}
}

func TestMaxTextureSizeEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTextureSize = 64
	d := newTestDevice(t, cfg)
	if _, err := d.CreateTexture(65, 1, R32F); err == nil {
		t.Fatal("expected MAX_TEXTURE_SIZE error")
	}
	if _, err := d.CreateTexture(0, 4, R32F); err == nil {
		t.Fatal("expected invalid-size error")
	}
}

func TestHalfFloatDeviceRoundsStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HalfFloatOnly = true
	d := newTestDevice(t, cfg)
	tex, _ := d.CreateTexture(1, 1, R32F)
	d.Upload(tex, []float32{1e-8})
	got := d.ReadPixels(tex)
	if got[0] != 0 {
		t.Fatalf("fp16 texture stored 1e-8 as %g, want 0", got[0])
	}
}

func TestPackedTextureChannels(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(2, 1, RGBA32F)
	d.Upload(tex, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	<-d.FenceSync()
	if tex.Fetch(0, 0, 2) != 3 || tex.Fetch(1, 0, 0) != 5 {
		t.Fatalf("packed fetch wrong: %g %g", tex.Fetch(0, 0, 2), tex.Fetch(1, 0, 0))
	}
	if tex.Texels() != 2 || tex.Len() != 8 {
		t.Fatalf("texels=%d len=%d", tex.Texels(), tex.Len())
	}
}

// TestSimulatedTimingModel states the model: a dispatch advances the clock
// by the launch cost plus its declared work — invocations, fetches, ALU
// and workgroup-memory operations at their constant prices — divided by
// the shader cores it can occupy.
func TestSimulatedTimingModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimulatedCores = 4
	d := newTestDevice(t, cfg)
	big, _ := d.CreateTexture(100, 100, R32F) // 10000 texels >> 4 cores
	tiny, _ := d.CreateTexture(3, 1, R32F)    // 3 texels < 4 cores
	noop := perTexel(func(int) float32 { return 0 })
	for _, c := range []struct {
		tex    *Texture
		work   Work
		wantPS int64
	}{
		{big, Work{}, launchPS + 10000*invokePS/4},
		{big, Work{Fetches: 30000, ALU: 70000}, launchPS + (10000*invokePS+30000*fetchPS+70000*aluPS)/4},
		{big, Work{Shared: 70000}, launchPS + (10000*invokePS+70000*aluPS)/4},
		{tiny, Work{Fetches: 7, ALU: 5}, launchPS + (3*invokePS+7*fetchPS+5*aluPS)/3},
	} {
		before := clockAfter(d)
		d.Execute(&Program{Name: "model", Work: c.work, Main: noop}, nil, c.tex)
		if got := clockAfter(d) - before; got != c.wantPS {
			t.Errorf("%v texels, work %+v: clock advanced %d ps, want %d", c.tex.Texels(), c.work, got, c.wantPS)
		}
	}
}

// TestClockIsAFunctionOfTheProgramsDispatched is the property the paper's
// experiments need from a simulated device: modelled time does not depend
// on the host. The same dispatch advances the clock by the same amount
// twice, with 1 worker or 4, with GOMAXPROCS 1 or 2, and whether its body
// returns at once or burns 5 ms of host time.
func TestClockIsAFunctionOfTheProgramsDispatched(t *testing.T) {
	work := Work{Fetches: 123456, ALU: 654321}
	measure := func(workers, procs int, body func(in [][]float32, lo, hi int, dst []float32)) int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := DefaultConfig()
		cfg.Workers = workers
		d := newTestDevice(t, cfg)
		tex, _ := d.CreateTexture(64, 33, RGBA32F)
		before := clockAfter(d)
		d.Execute(&Program{Name: "p", Work: work, Main: body}, nil, tex)
		first := clockAfter(d) - before
		d.Execute(&Program{Name: "p", Work: work, Main: body}, nil, tex)
		if second := clockAfter(d) - before - first; second != first {
			t.Errorf("workers=%d GOMAXPROCS=%d: same program modelled %d ps then %d ps", workers, procs, first, second)
		}
		return first
	}
	empty := func(_ [][]float32, lo, hi int, dst []float32) { clear(dst) }
	var burned atomic.Bool
	slow := func(_ [][]float32, lo, hi int, dst []float32) {
		if lo == 0 {
			for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			}
			burned.Store(true)
		}
		clear(dst)
	}
	want := measure(1, 1, empty)
	for _, c := range []struct {
		name           string
		workers, procs int
		body           func(in [][]float32, lo, hi int, dst []float32)
	}{
		{"4 workers", 4, 1, empty},
		{"GOMAXPROCS 2", 1, 2, empty},
		{"4 workers, GOMAXPROCS 2", 4, 2, empty},
		{"5 ms body", 3, 2, slow},
	} {
		if got := measure(c.workers, c.procs, c.body); got != want {
			t.Errorf("%s: modelled %d ps, want %d ps", c.name, got, want)
		}
	}
	if !burned.Load() {
		t.Fatal("the slow body never ran")
	}
}

// TestTextureAllocCostIsChargedToTheClock: creating a texture charges
// TextureAllocCost, deleting one half of it — the expense §4.1.2's recycler
// exists to avoid — as modelled time, not as a sleep.
func TestTextureAllocCostIsChargedToTheClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TextureAllocCost = 50 * time.Microsecond
	d := NewDevice(cfg)
	defer d.Close()
	const n = 7
	var texes []*Texture
	for i := 0; i < n; i++ {
		tex, err := d.CreateTexture(8, 8, RGBA32F)
		if err != nil {
			t.Fatal(err)
		}
		texes = append(texes, tex)
	}
	if got, want := clockAfter(d), int64(n*50_000_000); got != want {
		t.Fatalf("after %d creates the clock reads %d ps, want %d", n, got, want)
	}
	for _, tex := range texes {
		d.DeleteTexture(tex)
	}
	if got, want := clockAfter(d), int64(n*50_000_000+n*25_000_000); got != want {
		t.Fatalf("after %d deletes the clock reads %d ps, want %d", n, got, want)
	}

	free := newTestDevice(t, DefaultConfig())
	tex, _ := free.CreateTexture(8, 8, RGBA32F)
	free.DeleteTexture(tex)
	if got := clockAfter(free); got != 0 {
		t.Fatalf("a negative TextureAllocCost must charge nothing, clock reads %d ps", got)
	}
}

// TestProgramsRunOverRangesOfTheOutputTexture pins what Execute promises a
// program: disjoint ranges that cover every texel once, dst aliasing the
// texture's own storage for the range (no per-value return), and fp16
// rounding applied afterwards on half-float textures.
func TestProgramsRunOverRangesOfTheOutputTexture(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.HalfFloatOnly = true
		d := newTestDevice(t, cfg)
		tex, _ := d.CreateTexture(5, 5, RGBA32F)
		var calls, covered atomic.Int64
		d.Execute(&Program{Name: "ranges", Main: func(_ [][]float32, lo, hi int, dst []float32) {
			calls.Add(1)
			covered.Add(int64(hi - lo))
			if len(dst) != (hi-lo)*4 || cap(dst) != len(dst) {
				t.Errorf("range [%d,%d): dst has len %d cap %d, want %d", lo, hi, len(dst), cap(dst), (hi-lo)*4)
			}
			for i := range dst {
				dst[i] = float32(lo*4+i) + 1e-8
			}
		}}, nil, tex)
		got := d.ReadPixels(tex)
		if int(calls.Load()) > workers || covered.Load() != 25 {
			t.Fatalf("workers=%d: %d calls covered %d texels, want <= %d calls covering 25", workers, calls.Load(), covered.Load(), workers)
		}
		for i, v := range got {
			if want := RoundToFloat16(float32(i) + 1e-8); v != want {
				t.Fatalf("workers=%d: value %d = %g, want the fp16-rounded %g", workers, i, v, want)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(4, 4, R32F)
	d.Upload(tex, make([]float32, 16))
	d.Execute(&Program{Name: "id", Work: Work{Fetches: 16, Shared: 3, ALU: 32}, Main: perTexel(func(int) float32 { return 0 })}, nil, tex)
	d.ReadPixels(tex)
	s := d.Stats()
	if s.TexturesCreated != 1 || s.Uploads != 1 || s.ProgramsExecuted != 1 || s.Readbacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Fetches != 16 || s.SharedReads != 3 || s.ALUOps != 32 {
		t.Fatalf("work totals = %+v, want 16 fetches, 3 shared reads, 32 ALU ops", s)
	}
	if s.TexelInvocations != 16 {
		t.Fatalf("texel invocations = %d, want 16", s.TexelInvocations)
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDevice(cfg)
	tex, _ := d.CreateTexture(4, 4, R32F)
	var ran atomic.Int32
	for i := 0; i < 10; i++ {
		d.Execute(&Program{Name: "count", Main: perTexel(func(i int) float32 {
			if i == 0 {
				ran.Add(1)
			}
			return 0
		})}, nil, tex)
	}
	d.Close()
	if ran.Load() != 10 {
		t.Fatalf("Close dropped commands: ran %d of 10", ran.Load())
	}
}

// TestProgramInputsAndSetupAreBoundOncePerDispatch: every range of a
// program gets its dispatch's input textures' host slices, in order, and
// after them the buffer Setup filled — Setup running once per dispatch
// whatever the worker count, into one buffer the device keeps. The inputs belong to the dispatch, not to the program:
// one program dispatched on two input lists reads each in turn, and a list
// longer than a command holds inline binds like a short one.
func TestProgramInputsAndSetupAreBoundOncePerDispatch(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		d := newTestDevice(t, cfg)
		texs := make([]*Texture, InlineInputs+2)
		for k := range texs {
			texs[k], _ = d.CreateTexture(4, 4, R32F)
			vals := make([]float32, 16)
			for i := range vals {
				vals[i] = float32(100*k + i)
			}
			d.Upload(texs[k], vals)
		}
		var setups atomic.Int64
		buffers := map[*float32]bool{} // written on the device, read after its fence
		p := &Program{Name: "bound", Staged: 1,
			Setup: func(in [][]float32, staged []float32) {
				setups.Add(1)
				buffers[&staged[0]] = true
				staged[0] = in[1][0] + in[1][3]
			},
			Main: func(in [][]float32, lo, hi int, dst []float32) {
				staged := in[len(in)-1][0]
				for i := range dst {
					dst[i] = in[0][lo+i] + staged
				}
			}}
		for _, inputs := range [][]*Texture{texs[:2], {texs[3], texs[1]}, texs} {
			out, _ := d.CreateTexture(4, 4, R32F)
			d.Execute(p, inputs, out)
			first := float32(100 * slices.Index(texs, inputs[0]))
			for i, v := range d.ReadPixels(out) {
				if want := first + float32(i) + 100 + 103; v != want {
					t.Fatalf("%d workers, %d inputs: texel %d = %g, want %g", workers, len(inputs), i, v, want)
				}
			}
		}
		if n := setups.Load(); n != 3 {
			t.Errorf("%d workers: Setup ran %d times over three dispatches, want three", workers, n)
		}
		if n := len(buffers); n != 1 {
			t.Errorf("%d workers: Setup filled %d buffers over three dispatches, want the device's one", workers, n)
		}
	}
}

// TestDeviceKeepsItsCoresUntilClose: a device spreads a dispatch over
// cores it starts once and keeps, so a warmed dispatch starts no goroutine
// and allocates nothing of its own; Close stops them, and a closed device
// still runs what it is handed, on the caller.
func TestDeviceKeepsItsCoresUntilClose(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Workers = 4
	d := NewDevice(cfg)
	out, _ := d.CreateTexture(16, 16, R32F)
	p := &Program{Name: "fill", Main: perTexel(func(i int) float32 { return float32(i) })}
	c := &ComputeProgram{Name: "fill", NumGroups: 256, SharedSize: 8,
		Main: func(_ [][]float32, g int, _, dst []float32) { dst[g] = float32(g) }}
	dispatch := func() {
		d.Execute(p, nil, out)
		d.ExecuteCompute(c, nil, out)
		<-d.FenceSync()
	}
	dispatch()
	warmed := runtime.NumGoroutine()
	if bufpool.RaceEnabled {
		t.Log("allocation count skipped under the race detector")
	} else if n := testing.AllocsPerRun(20, dispatch); n > 2 {
		t.Errorf("a warmed fragment and compute dispatch cost %.0f allocations, want ≤ 2 (the fence's channel and command; 3 while a compute program wrote through a store func made per dispatch)", n)
	}
	if got := runtime.NumGoroutine(); got > warmed {
		t.Errorf("%d goroutines after 20 dispatches, %d after the first", got, warmed)
	}
	d.Close()
	if d.cores != nil {
		t.Error("Close left the device's cores running")
	}
	// A core that has signalled its exit may not have returned yet.
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Close, %d before NewDevice", got, before)
	}
	d.Execute(&Program{Name: "closed", Main: perTexel(func(i int) float32 { return 2 * float32(i) })}, nil, out)
	for i, v := range d.ReadPixels(out) {
		if v != 2*float32(i) {
			t.Fatalf("closed device: texel %d = %g, want %g", i, v, 2*float32(i))
		}
	}
}
