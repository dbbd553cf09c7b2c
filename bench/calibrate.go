package main

import (
	"math"
	"sort"
	"time"
)

// Host calibration.
//
// The host this benchmark was defined on changes speed under the program:
// for seconds to minutes at a time everything runs 1.2–1.8× slower, whole
// runs included, so the spread between runs of any wall-clock figure was
// 10–30% whatever statistic was taken inside a run (best round included).
// What does repeat is the ratio of the program's time to the time of a fixed
// piece of the benchmark's own code run next to it. So every timed round,
// replay cycle and cold set-up is bracketed by two samples of such code, and
// its times are divided by how much slower than the reference host those
// samples ran.
//
// The code is a float32 matrix product small enough to stay in L1. Five
// candidate kernels were recorded side by side over 40 runs in the host's
// noisiest hour (this one, 128- and 192-wide products that spill to L2, a
// strided walk that misses every cache, allocating and touching fresh
// pages), alone and in pairs: corrected by this one the four workloads
// spread 4–6% between runs; by any other, or any pair, 7–30%.

// refCalibrationMS is what a calibration sample takes on the reference
// host: a quiet Xeon @ 2.10GHz vCPU with the kernel compiled by go1.24, the
// fastest state every run of the defining study reached. It only fixes the
// scale: on other hardware, or under a toolchain that compiles the kernel
// differently, it multiplies every time-based metric by one factor, so
// comparisons made under the same conditions hold and comparisons across
// them do not. To keep such a step visible, every run's summary carries the
// Go version and each raw sample (calibrationSamples), a traced run reports
// host.calibration_ms, and -selfcheck restates the fastest sample it saw
// next to this constant.
const refCalibrationMS = 2.14

const calDim = 64

var (
	calA, calB, calC [calDim * calDim]float32
	calSink          float32
)

func init() {
	for i := range calA {
		calA[i] = float32(i%7) * 0.25
		calB[i] = float32(i%5) * 0.5
	}
}

// calibrationKernel is eight 64×64×64 float32 matrix products.
func calibrationKernel() float64 {
	t0 := time.Now()
	for range 8 {
		for i := 0; i < calDim; i++ {
			for j := 0; j < calDim; j++ {
				var s float32
				for k := 0; k < calDim; k++ {
					s += calA[i*calDim+k] * calB[k*calDim+j]
				}
				calC[i*calDim+j] = s
			}
		}
	}
	calSink += calC[0]
	return msSince(t0)
}

// calibrationSamples is every sample this process took, in ms and in
// order, for the run's summary. Samples are only ever taken on the
// goroutine that drives the run.
var calibrationSamples []float64

// sampleHost is one calibration sample: the median time in ms of five runs
// of the kernel, about 11 ms in all. It runs between rounds, outside what a
// window charges to items.
func sampleHost() float64 {
	var v [5]float64
	for i := range v {
		v[i] = calibrationKernel()
	}
	sort.Float64s(v[:])
	calibrationSamples = append(calibrationSamples, v[2])
	return v[2]
}

// slowness is how many times slower than the reference host the stretch
// between two samples ran: 1 on the quiet reference host.
func slowness(before, after float64) float64 {
	return math.Sqrt(before*after) / refCalibrationMS
}
