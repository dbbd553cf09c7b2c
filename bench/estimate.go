package main

import (
	"math"
	"sort"
)

// round is one slice of a timed window: what each generator completed
// between a common start and its own last completion.
type round struct {
	// itemsPerS is the sum over generators of items ÷ that generator's
	// elapsed time, so a generator finishing its last operation late does
	// not dilute the others.
	itemsPerS float64
	// latencies are the round's per-operation latencies in ms, unsorted.
	latencies []float64
	// slowness is how many times slower than the reference host the round
	// ran, from the calibration samples either side of it.
	slowness float64
}

// calibratedRounds is the estimator every time-based end-to-end metric
// uses: each round's throughput and median latency, corrected for how slow
// the host was during that round, then the median over rounds. The median
// over rounds, not the best: correcting a round and then picking the extreme
// picks the round whose calibration sample was the most wrong.
func calibratedRounds(rounds []round) (itemsPerS, p50MS float64) {
	var rates, medians []float64
	for _, r := range rounds {
		rates = append(rates, r.itemsPerS*r.slowness)
		if len(r.latencies) > 0 {
			medians = append(medians, median(r.latencies)/r.slowness)
		}
	}
	return median(rates), median(medians)
}

// quietRounds is the uncorrected best round: the highest round throughput
// and the lowest round median latency. Interference only ever slows a
// round, so if the host left any round alone this is the program's own
// speed. It is reported as a diagnostic beside calibratedRounds: on the
// defining host whole runs pass without a quiet round, and it spread 5–30%
// between runs.
func quietRounds(rounds []round) (bestItemsPerS, floorP50MS float64) {
	floorP50MS = math.Inf(1)
	for _, r := range rounds {
		bestItemsPerS = math.Max(bestItemsPerS, r.itemsPerS)
		if len(r.latencies) > 0 {
			floorP50MS = math.Min(floorP50MS, median(r.latencies))
		}
	}
	return bestItemsPerS, floorP50MS
}

// hostNoise describes how much the host disturbed the window: the median
// slowness of its rounds, the share of rounds more than 1.25× slower than
// the reference host, and the spread between the slowest and the fastest
// round's slowness relative to the fastest.
func hostNoise(rounds []round) (slownessP50, burstShare, roundSpread float64) {
	if len(rounds) == 0 {
		return 0, 0, 0
	}
	var s []float64
	bursts := 0
	for _, r := range rounds {
		s = append(s, r.slowness)
		if r.slowness > 1.25 {
			bursts++
		}
	}
	sort.Float64s(s)
	return quantileSorted(s, 0.5), float64(bursts) / float64(len(s)), (s[len(s)-1] - s[0]) / s[0]
}

// median returns the middle of values without reordering them.
func median(values []float64) float64 {
	return quantileSorted(sortedCopy(values), 0.5)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile of an ascending series.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a report may quote as its tail,
// highest first. The lower ones are for short windows of slow operations:
// 50 epochs support a p80, not a p90.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 75, 50}

// minSamplesBeyond is how many samples must lie beyond a percentile for it
// to be quoted: fewer and the figure is one or two outliers, not a tail.
const minSamplesBeyond = 10

// highestPercentile returns the highest of tailPercentiles that has at
// least minSamplesBeyond samples beyond it, and its value. It refuses
// (ok=false) when not even the lowest qualifies.
func highestPercentile(samples []float64) (p, value float64, ok bool) {
	sorted := sortedCopy(samples)
	for _, p := range tailPercentiles {
		beyond := int(float64(len(sorted))*(100-p)/100 + 1e-9) // 10000 × 0.1% is 10, not 9.99…
		if beyond >= minSamplesBeyond {
			return p, quantileSorted(sorted, p/100), true
		}
	}
	return 0, 0, false
}
