package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/tf"
)

const (
	// warmUp fills caches (weight panels, buffer pool, texture recycler,
	// keep-alive connections) before anything is timed.
	warmUp = 3 * time.Second
	// coldProbes is how many fresh-process set-ups one end-to-end run takes.
	coldProbes = 7
	// roundLength is how long one round of a timed window aims to be, and
	// minRounds the fewest rounds a window may have.
	roundLength = 500 * time.Millisecond
	minRounds   = 30
)

// coldReport is what a cold set-up probe child prints.
type coldReport struct {
	SetupS float64 `json:"setup_s"`
	// Before and After are host calibration samples either side of the
	// set-up, taken in the child so they see the host the set-up saw.
	Before float64    `json:"before_ms"`
	After  float64    `json:"after_ms"`
	Stages stageTimes `json:"stages"`
	// First is the first output; the parent drops it once checked.
	First []float32 `json:"first,omitempty"`
}

// calibrated is the set-up time corrected for the host's slowness.
func (c coldReport) calibrated() float64 { return c.SetupS / slowness(c.Before, c.After) }

// coldSetUp is the probe child: in a process that has done nothing else,
// time the workload's set-up through its first output and print the report.
// The parent holds the references and checks the output.
func coldSetUp(w workload, seed int64) error {
	in := newInputs(seed)
	rep := coldReport{Stages: stageTimes{}, Before: sampleHost()}
	start := time.Now()
	_, first, err := w.setUp(in, nil, rep.Stages)
	rep.SetupS = time.Since(start).Seconds()
	rep.After = sampleHost()
	if err != nil {
		return err
	}
	rep.First = first
	// The process exits next, which releases the fixture.
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// coldProbe runs one cold set-up of w in a fresh child process of this
// binary and checks its first output. In-process repeats would measure warm
// caches (0.025 s against a 0.19 s cold set-up), so they are not used.
func coldProbe(w workload, seed int64, refs *references) (coldReport, error) {
	var rep coldReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "-coldsetup", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("cold set-up probe: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return rep, fmt.Errorf("cold set-up probe output: %w", err)
	}
	if err := w.checkFirst(refs, rep.First); err != nil {
		return rep, fmt.Errorf("cold set-up probe's first output: %w", err)
	}
	rep.First = nil
	return rep, nil
}

// prober collects cold set-up probes taken at pauses in a run.
type prober struct {
	w       workload
	seed    int64
	refs    *references
	reports []coldReport
	err     error
}

func (p *prober) probe() {
	rep, err := coldProbe(p.w, p.seed, p.refs)
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.reports = append(p.reports, rep)
}

// setupSeconds returns each probe's calibrated set-up time.
func (p *prober) setupSeconds() []float64 {
	s := make([]float64, len(p.reports))
	for i, r := range p.reports {
		s[i] = r.calibrated()
	}
	return s
}

// roundDetail is each round's raw figures for the summary: slowness,
// uncorrected items/s, uncorrected median latency in ms, operations.
func roundDetail(rounds []round) [][4]float64 {
	detail := make([][4]float64, len(rounds))
	for i, r := range rounds {
		detail[i] = [4]float64{r.slowness, r.itemsPerS, median(r.latencies), float64(len(r.latencies))}
	}
	return detail
}

// memBaseline is the engine's live tensor state, compared across a window
// to prove the window leaked nothing.
type memBaseline struct {
	tensors int
	bytes   int64
}

func takeMemBaseline() memBaseline {
	m := tf.Memory()
	return memBaseline{tensors: m.NumTensors, bytes: m.NumBytes}
}

// check fails the run if the engine's live tensor state moved off the
// baseline during what.
func (base memBaseline) check(rep *report, what string) {
	if now := takeMemBaseline(); now != base {
		rep.fail("%s leaked: %d tensors / %d bytes live before, %d / %d after",
			what, base.tensors, base.bytes, now.tensors, now.bytes)
	}
}

// roundsFor cuts d into rounds of about roundLength, never fewer than
// minRounds.
func roundsFor(d time.Duration) (n int, each time.Duration) {
	n = max(minRounds, int((d+roundLength/2)/roundLength))
	return n, d / time.Duration(n)
}

// runEndToEnd is a -trace 0 run: cold set-up probes, warm-up, then the
// timed window with tracing off, from which every end-to-end metric comes.
func runEndToEnd(w workload, seed int64, d time.Duration) (*report, error) {
	rep := newReport(w, 0, seed)
	in := newInputs(seed)
	refs, err := computeReferences(in)
	if err != nil {
		return nil, err
	}
	// Probes are spaced at least two seconds apart, so that they sample
	// different host weather: one before the warm set-up, one after warm-up,
	// the rest every few rounds of the window.
	rep.took("references")
	pr := &prober{w: w, seed: seed, refs: refs}
	pr.probe()
	rep.took("probes")

	r, first, err := w.setUp(in, refs, stageTimes{})
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := w.checkFirst(refs, first); err != nil {
		rep.fail("first output: %v", err)
	}
	rep.took("set-up")

	n, each := roundsFor(d)
	gen := newLoadGen(r, w)
	rep.phase("warmup", gen.run(1, warmUp, nil))
	rep.took("warm-up")
	pr.probe()
	rep.took("probes")

	inWindow := coldProbes - len(pr.reports)
	base := takeMemBaseline()
	win := gen.run(n, each, func(i int) {
		if (i+1)%(n/(inWindow+1)) == 0 && len(pr.reports) < coldProbes {
			rep.took("window")
			pr.probe()
			rep.took("probes")
		}
	})
	rep.took("window")
	rep.phase("window", win)
	base.check(rep, "window")
	if tr, ok := r.(*trainRunner); ok {
		if err := tr.verdict(); err != nil {
			rep.fail("training: %v", err)
		}
	}
	if pr.err != nil {
		rep.fail("%v", pr.err)
	}
	if len(pr.reports) == 0 || win.items == 0 {
		return rep, fmt.Errorf("nothing measured: %d probes, %d items: %v", len(pr.reports), win.items, rep.Problems)
	}

	setups := pr.setupSeconds()
	itemsPerS, p50 := calibratedRounds(win.rounds)
	rep.set("setup_s", median(setups))
	rep.set("items_per_s", itemsPerS)
	rep.set("latency_p50_ms", p50)
	rep.set("allocs_per_item", float64(win.mallocs)/float64(win.items))
	rep.set("bytes_per_item", float64(win.bytes)/float64(win.items))
	rep.Conditions["rounds"] = n
	rep.Conditions["round_s"] = each.Seconds()
	rep.Conditions["samples"] = len(win.lat)
	rep.Conditions["setup_probes"] = pr.reports
	rep.Conditions["round_detail"] = roundDetail(win.rounds)
	return rep, nil
}
