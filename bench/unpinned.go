package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// The unpinned window.
//
// Every gated figure is measured on one CPU (see pinToOneCPU), so the
// program's parallel paths — the native worker pool's chunking, the webgl
// device's workers, replicas, concurrent GC — move no gated metric. A
// traced run therefore also runs the workload's window in a child process
// that has every CPU back and every default as production sees it
// (GOMAXPROCS = the host's CPU count), and reports it uncorrected beside
// the pinned window's plain figures. On the defining host it swings
// 1.4–1.5× with the second vCPU, which is why it is a diagnostic and not a
// gate; on a quiet multi-core host it is the figure to read.

// unpinnedWarmUp is shorter than a gated run's: the child only has to fill
// the caches its short window uses.
const unpinnedWarmUp = time.Second

// unpinnedReport is what the unpinned child prints.
type unpinnedReport struct {
	ItemsPerS  float64    `json:"items_per_s"` // items ÷ the rounds' wall time, uncorrected
	P50MS      float64    `json:"p50_ms"`      // median of every operation's latency, uncorrected
	Rounds     int        `json:"rounds"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Count      phaseCount `json:"count"`
	Problem    string     `json:"problem,omitempty"`
}

// runUnpinned is the child: set the workload up, warm it, run rounds for d
// and print the report.
func runUnpinned(w workload, seed int64, d time.Duration) error {
	in := newInputs(seed)
	refs, err := computeReferences(in)
	if err != nil {
		return err
	}
	r, first, err := w.setUp(in, refs, stageTimes{})
	if err != nil {
		return err
	}
	defer r.close()
	if err := w.checkFirst(refs, first); err != nil {
		return fmt.Errorf("first output: %w", err)
	}
	gen := newLoadGen(r, w)
	warm := gen.run(1, unpinnedWarmUp, nil)
	win := gen.run(max(1, int(d/roundLength)), roundLength, nil)
	if win.items == 0 {
		return fmt.Errorf("nothing measured: %v", win.firstErr)
	}
	rep := unpinnedReport{
		ItemsPerS: float64(win.items) / win.loadTime.Seconds(), P50MS: median(win.lat),
		Rounds: len(win.rounds), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count: warm.count,
	}
	rep.Count.add(win.count)
	for _, e := range []error{warm.firstErr, win.firstErr} {
		if e != nil && rep.Problem == "" {
			rep.Problem = e.Error()
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// unpinnedWindow runs w's window for d in an unpinned child of this binary.
func unpinnedWindow(w workload, seed int64, d time.Duration) (unpinnedReport, error) {
	var rep unpinnedReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "-unpinned", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(max(1, int(d.Seconds()))))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("unpinned window: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return rep, fmt.Errorf("unpinned window output: %w", err)
	}
	return rep, nil
}
