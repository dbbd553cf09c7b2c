package main

import (
	"math"
	"testing"
	"time"
)

// A window whose rounds sit at a floor, except that 1.6× bursts cover 60%
// of them, on a host the calibration samples track: the calibrated estimator
// must report the floor, and so must the best round.
func TestCalibratedRoundsIgnoreBursts(t *testing.T) {
	const floorMS, rounds, perRound = 6.0, 30, 40
	var rs []round
	for i := range rounds {
		slow := 1.0
		if i%5 < 3 { // 60% of rounds, in runs of three
			slow = 1.6
		}
		// The calibration sample is itself noisy: ±3% around the truth.
		r := round{itemsPerS: 1000 / (floorMS * slow), slowness: slow * (1 + 0.03*math.Sin(float64(i)))}
		for j := range perRound {
			// ±1% deterministic jitter around the round's level.
			jitter := 1 + 0.01*math.Sin(float64(i*perRound+j))
			r.latencies = append(r.latencies, floorMS*slow*jitter)
		}
		rs = append(rs, r)
	}
	for name, estimate := range map[string]func([]round) (float64, float64){
		"calibrated": calibratedRounds, "best round": quietRounds,
	} {
		rate, p50 := estimate(rs)
		if rel := math.Abs(p50-floorMS) / floorMS; rel > 0.02 {
			t.Errorf("%s: median latency %.3f ms is %.1f%% from the %.1f ms floor", name, p50, 100*rel, floorMS)
		}
		if want := 1000 / floorMS; math.Abs(rate-want)/want > 0.02 {
			t.Errorf("%s: throughput %.2f, want within 2%% of %.2f", name, rate, want)
		}
	}
	slow, burst, spread := hostNoise(rs)
	if math.Abs(burst-0.6) > 0.01 {
		t.Errorf("burst share %.2f, want 0.60", burst)
	}
	if slow < 1.5 || slow > 1.7 {
		t.Errorf("median slowness %.2f, want about 1.6", slow)
	}
	if spread < 0.5 || spread > 0.8 {
		t.Errorf("round spread %.2f, want about 0.6", spread)
	}
}

// When the whole window is slow — no quiet round at all — the best round
// reports the slow figure and only calibration recovers the program's own.
func TestCalibratedRoundsSurviveASlowRun(t *testing.T) {
	var rs []round
	for i := range 30 {
		slow := 1.3 + 0.1*math.Sin(float64(i))
		rs = append(rs, round{itemsPerS: 100 / slow, latencies: []float64{10 * slow, 10 * slow, 10 * slow}, slowness: slow})
	}
	if _, p50 := quietRounds(rs); p50 < 11.5 {
		t.Errorf("best round on a slow host read %.2f ms; the test wants it visibly above the 10 ms truth", p50)
	}
	rate, p50 := calibratedRounds(rs)
	if math.Abs(p50-10) > 0.01 || math.Abs(rate-100) > 0.1 {
		t.Errorf("calibrated: %.3f ms, %.2f items/s; want 10 ms, 100 items/s", p50, rate)
	}
}

func TestSlowness(t *testing.T) {
	if got := slowness(refCalibrationMS, refCalibrationMS); math.Abs(got-1) > 1e-12 {
		t.Errorf("the reference host's slowness is %v, want 1", got)
	}
	// A stretch that began quiet and ended 1.44× slow sits between: 1.2.
	if got := slowness(refCalibrationMS, 1.44*refCalibrationMS); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("slowness = %v, want 1.2", got)
	}
}

// A percentile is quoted only with at least ten samples beyond it.
func TestHighestPercentileRule(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median would have only 9 beyond it
		{20, 50, true},
		{49, 75, true}, // p80 would have 9 beyond it
		{50, 80, true},
		{99, 80, true}, // p90 would have 9
		{100, 90, true},
		{199, 90, true}, // p95 would have 9
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := highestPercentile(series(tc.n))
		if ok != tc.ok || p != tc.want {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range series(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minSamplesBeyond {
				t.Errorf("n=%d: p%v = %v has only %d samples beyond it", tc.n, p, v, beyond)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "parent", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},
		{name: "b", start: ms(30), end: ms(60), parent: 0},  // overlaps a: 30–40 counts once
		{name: "c", start: ms(90), end: ms(120), parent: 0}, // runs past the parent: clipped
		{name: "grandchild", start: ms(15), end: ms(20), parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30), ms(30), ms(5)}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("%s: self time %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	if got := quartileSpread([]float64{2, 4, 4, 5, 7}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("spread = %v, want (6-3)/4 = 0.75", got)
	}
}
