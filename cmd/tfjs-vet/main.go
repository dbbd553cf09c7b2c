// Command tfjs-vet is the static-analysis entry point of the repo. It has
// two tiers. The source tier type-checks the module with nothing but the
// standard library and runs the repo-specific analyzers over it:
//
//	tensorleak    constructor results must be disposed/kept/returned/escape
//	syncread      no blocking reads reachable from event-loop callbacks
//	operr         typed *core.OpError panics; no discarded internal errors
//	poolretain    no Raw/ReadSync buffer view may escape the recycler's reach
//	lockorder     exec lock is outermost; never acquire it under a mutex
//
// The IR tier (-plan) verifies the compiled execution plans
// themselves: it synthesizes the shipped example models in-process, loads
// each with the planvet dataflow verifier on (def-before-use, no
// use-after-free, dispose-exactly-once, acyclic aliases, protected
// feeds/outputs), and prints the per-root lifetime table the compiler
// produced.
//
// Usage:
//
//	tfjs-vet ./...                  # vet the whole module (the CI gate)
//	tfjs-vet ./internal/ops ./tf    # vet specific packages
//	tfjs-vet -run tensorleak ./...  # one analyzer only
//	tfjs-vet -plan zoo              # verify every example model's plan
//	tfjs-vet -plan mobilenet-0.25-96
//	tfjs-vet -list                  # describe the analyzers
//
// Exit status is 1 when any unsuppressed finding is reported (or, with
// -plan, when any plan is rejected). Findings are silenced line-by-line
// with `//lint:ignore <analyzer> <reason>`; a directive without a reason
// suppresses nothing and is itself reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzers to run (default: all)")
	showSuppressed := flag.Bool("show-suppressed", false, "also print suppressed findings with their justifications")
	plan := flag.String("plan", "", `verify the compiled plan of an example model ("zoo", or mobilenet-<alpha>-<size>[-unoptimized]) and print its lifetime table`)
	flag.Parse()

	if *plan != "" {
		os.Exit(runPlan(*plan, os.Stdout))
	}

	if *list {
		for _, a := range analysis.All {
			kind := "package"
			if a.Module {
				kind = "module"
			}
			fmt.Printf("%-14s %-8s %s\n", a.Name, kind, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*run)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.SharedLoader(cwd)
	if err != nil {
		fatal(err)
	}
	loadStart := time.Now()
	prog, err := loader.LoadPatterns(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	loadTime := time.Since(loadStart)
	runStart := time.Now()
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fatal(err)
	}
	runTime := time.Since(runStart)

	failed := false
	for _, d := range diags {
		if d.Suppressed {
			if *showSuppressed {
				fmt.Printf("%s:%d:%d: %s: suppressed (%s): %s\n",
					relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column,
					d.Analyzer, d.Reason, d.Message)
			}
			continue
		}
		failed = true
		fmt.Printf("%s:%d:%d: %s: %s\n",
			relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("tfjs-vet: %d package(s) clean (load %s, analyzers %s)\n",
		len(prog.Pkgs), loadTime.Round(time.Millisecond), runTime.Round(time.Millisecond))
}

// relPath renders filenames relative to the working directory when that is
// shorter, matching go vet's output style.
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tfjs-vet:", err)
	os.Exit(1)
}
