package bufpool

import (
	"math"
	"testing"
	"time"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1},
		{1, 0},
		{32, 0},
		{33, 1},
		{64, 1},
		{65, 2},
		{1 << 26, maxClassBits - minClassBits},
		{1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := New()
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(a), cap(a))
	}
	a[0] = 42
	p.Put(a)
	b := p.Get(120)
	if cap(b) != 128 {
		t.Fatalf("recycled Get(120): cap=%d, want 128", cap(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("Get after Put did not recycle the buffer")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.RecycledBytes != 120*4 {
		t.Fatalf("recycledBytes=%d, want %d", st.RecycledBytes, 120*4)
	}
	if st.PoolBytes != 0 || st.FreeBuffers != 0 {
		t.Fatalf("pool should be empty after recycle: %+v", st)
	}
}

func TestPutDropsForeignCaps(t *testing.T) {
	p := New()
	p.Put(make([]float32, 100)) // cap 100: not a class size
	if st := p.Stats(); st.FreeBuffers != 0 {
		t.Fatalf("foreign-cap buffer was pooled: %+v", st)
	}
	p.Put(nil)
	p.Put(make([]float32, 1<<27)) // beyond max class
	if st := p.Stats(); st.FreeBuffers != 0 {
		t.Fatalf("out-of-range buffer was pooled: %+v", st)
	}
}

func TestPoison(t *testing.T) {
	p := New()
	p.SetPoison(true)
	a := p.Get(32)
	for i := range a {
		a[i] = 1
	}
	p.Put(a)
	for i := range a {
		if !math.IsNaN(float64(a[i])) {
			t.Fatalf("a[%d] = %v, want NaN poison", i, a[i])
		}
	}

}

func TestHighWaterCap(t *testing.T) {
	p := New()
	p.SetMaxBytes(1024) // two 128-element float32 buffers = 1024 bytes
	p.Put(make([]float32, 128))
	p.Put(make([]float32, 128))
	p.Put(make([]float32, 128)) // over the cap: dropped
	st := p.Stats()
	if st.FreeBuffers != 2 || st.PoolBytes != 1024 {
		t.Fatalf("high-water cap not enforced: %+v", st)
	}
}

func TestDrain(t *testing.T) {
	p := New()
	p.Put(make([]float32, 64))
	p.Put(make([]float32, 256))
	p.Drain()
	st := p.Stats()
	if st.FreeBuffers != 0 || st.PoolBytes != 0 {
		t.Fatalf("drain left buffers: %+v", st)
	}
}

func TestTrimIdleClasses(t *testing.T) {
	p := New()
	p.Put(make([]float32, 64))
	// Backdate the class so an explicit scan sees it as idle.
	p.mu.Lock()
	var used time.Time
	for i := range p.classes {
		if len(p.classes[i].free) > 0 {
			used = p.classes[i].lastUse
		}
	}
	p.trimLocked(used.Add(2 * idleAfter))
	p.mu.Unlock()
	if st := p.Stats(); st.FreeBuffers != 0 || st.PoolBytes != 0 {
		t.Fatalf("idle trim left buffers: %+v", st)
	}
}

func TestGetZeroLen(t *testing.T) {
	p := New()
	if got := p.Get(0); len(got) != 0 {
		t.Fatalf("Get(0) len = %d", len(got))
	}
}
