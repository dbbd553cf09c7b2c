package glsim

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/bufpool"
)

// TestUploadCopiesAtCall: Upload copies its values before it returns, as
// texSubImage2D does, so a caller that overwrites its slice while the
// upload still waits in the queue does not change what the texture
// receives. The queue is held behind a command blocked on a channel until
// the slice has been overwritten.
func TestUploadCopiesAtCall(t *testing.T) {
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(4, 4, R32F)
	release := make(chan struct{})
	d.submit(func() { <-release })
	vals := make([]float32, 16)
	for i := range vals {
		vals[i] = float32(i) + 0.5
	}
	want := slices.Clone(vals)
	d.Upload(tex, vals)
	for i := range vals {
		vals[i] = -1
	}
	close(release)
	if got := d.ReadPixels(tex); !slices.Equal(got, want) {
		t.Fatalf("texture holds %v, want the values at the call %v", got, want)
	}
}

// TestStagedUploadsKeepTheirValues: back-to-back uploads of one size share
// the staging pool's size class, so a staging buffer given back before its
// texels were stored, or handed to two uploads at once, would show as the
// other upload's values or as the pool's NaN poison. Four goroutines each
// upload two textures of one size per round and read them back; each
// texture must read exactly its own values, on a full-float and a
// half-float device.
func TestStagedUploadsKeepTheirValues(t *testing.T) {
	for _, half := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.HalfFloatOnly = half
		d := newTestDevice(t, cfg)
		d.staging.SetPoison(true)
		const n = 8 * 8 * 4
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 16; round++ {
					a, _ := d.CreateTexture(8, 8, RGBA32F)
					b, _ := d.CreateTexture(8, 8, RGBA32F)
					va, vb := make([]float32, n), make([]float32, n)
					for i := range va {
						va[i] = float32((g*16+round)*n+i) / 7
						vb[i] = -float32((g*16+round)*n+i) / 3
					}
					d.Upload(a, va)
					d.Upload(b, vb)
					for _, c := range []struct {
						tex  *Texture
						vals []float32
					}{{a, va}, {b, vb}} {
						for i, v := range d.ReadPixels(c.tex) {
							want := c.vals[i]
							if half {
								want = RoundToFloat16(want)
							}
							if math.IsNaN(float64(v)) || v != want {
								t.Errorf("fp16=%v goroutine %d round %d: texel value %d = %g, want %g", half, g, round, i, v, want)
								return
							}
						}
					}
					d.DeleteTexture(a)
					d.DeleteTexture(b)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTransferAllocs: a warmed Upload allocates nothing (its staging buffer
// is recycled, its command is a value on the queue) and a ReadPixels
// allocates one object, the slice it returns (its reply channel is
// recycled). An upload followed by
// a readback is measured, not an upload alone: an upload that ran ahead of
// the queue would find its size class empty and make a staging buffer.
// They read 4 and 5 while each queued a closure, the readback's with a
// captured variable and a channel of its own.
func TestTransferAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	d := newTestDevice(t, DefaultConfig())
	tex, _ := d.CreateTexture(32, 32, RGBA32F)
	vals := make([]float32, tex.Len())
	readback := func() { d.ReadPixels(tex) }
	roundTrip := func() {
		d.Upload(tex, vals)
		d.ReadPixels(tex)
	}
	roundTrip() // warmup: a staging buffer and a reply channel
	if got := testing.AllocsPerRun(100, readback); got != 1 {
		t.Errorf("a warmed ReadPixels makes %.0f allocations, want 1 (the slice it returns)", got)
	}
	if got := testing.AllocsPerRun(100, roundTrip); got != 1 {
		t.Errorf("a warmed Upload and ReadPixels make %.0f allocations, want 1 (the readback's slice)", got)
	}
}
