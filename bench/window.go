package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// phaseCount is the attempted/succeeded/failed tally of items printed per
// phase. A failed, refused or wrongly answered item counts as failed.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (c *phaseCount) add(o phaseCount) {
	c.Attempted += o.Attempted
	c.Succeeded += o.Succeeded
	c.Failed += o.Failed
}

// window is a run of rounds and what the process spent on them. Heap and
// CPU deltas are taken around each round, so what happens between rounds
// (calibration, cold set-up probes, resets) is not charged to the items.
type window struct {
	rounds   []round
	lat      []float64 // every operation's latency in ms, in completion order per round
	items    int
	loadTime time.Duration // sum of the rounds' wall times
	mallocs  uint64
	bytes    uint64
	cpu      time.Duration // user+system, this process
	count    phaseCount
	firstErr error
}

// loadGen drives a runner in closed loop, one goroutine per generator, and
// keeps each generator's operation counter across rounds so the input pool
// keeps cycling.
type loadGen struct {
	r          runner
	generators int
	itemsPerOp int
	next       []int
}

func newLoadGen(r runner, w workload) *loadGen {
	return &loadGen{r: r, generators: w.generators, itemsPerOp: w.itemsPerOp, next: make([]int, w.generators)}
}

// run executes n rounds of length d, each bracketed by host calibration
// samples; between(i), when set, runs after round i with the load paused.
// A sample taken after one round also opens the next, unless something ran
// in between.
func (l *loadGen) run(n int, d time.Duration, between func(i int)) *window {
	w := &window{}
	before := sampleHost()
	for i := range n {
		if rs, ok := l.r.(resetter); ok {
			if err := rs.reset(); err != nil && w.firstErr == nil {
				w.firstErr = err
			}
			before = sampleHost()
		}
		l.round(w, d)
		after := sampleHost()
		w.rounds[len(w.rounds)-1].slowness = slowness(before, after)
		before = after
		if between != nil {
			between(i)
			before = sampleHost()
		}
	}
	return w
}

func (l *loadGen) round(w *window, d time.Duration) {
	type genResult struct {
		items   int
		elapsed time.Duration
		lat     []float64
		count   phaseCount
		err     error
	}
	results := make([]genResult, l.generators)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range l.generators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[g]
			for time.Since(start) < d {
				t0 := time.Now()
				items, err := l.r.op(g, l.next[g])
				res.lat = append(res.lat, msSince(t0))
				l.next[g]++
				res.items += items
				res.count.Attempted += l.itemsPerOp
				res.count.Succeeded += items
				res.count.Failed += l.itemsPerOp - items
				if err != nil && res.err == nil {
					res.err = err
				}
			}
			res.elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	w.loadTime += time.Since(start)
	w.cpu += processCPU() - cpuBefore
	runtime.ReadMemStats(&after)
	w.mallocs += after.Mallocs - before.Mallocs
	w.bytes += after.TotalAlloc - before.TotalAlloc

	var rd round
	for _, res := range results {
		rd.itemsPerS += float64(res.items) / res.elapsed.Seconds()
		rd.latencies = append(rd.latencies, res.lat...)
		w.items += res.items
		w.count.add(res.count)
		if w.firstErr == nil {
			w.firstErr = res.err
		}
	}
	w.lat = append(w.lat, rd.latencies...)
	w.rounds = append(w.rounds, rd)
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
