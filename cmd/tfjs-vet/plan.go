package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graphmodel"
	"repro/internal/models"
	"repro/internal/planvet"
	"repro/internal/savedmodel"
	"repro/tf"
)

// planSpec names one example model the -plan mode can synthesize and
// verify. The repo ships no model artifacts — examples are generated
// in-process from seeded weights, exactly as the tests and benchmarks do —
// so a spec fully determines the compiled plan.
type planSpec struct {
	name     string
	alpha    float64
	size     int
	optimize bool
}

// planZoo is every shipped example-model shape: the set the CI plan gate
// verifies. Optimized and unoptimized arms compile different plans (the
// optimizer fuses and elides aliases), so both are covered.
var planZoo = []planSpec{
	{name: "mobilenet-0.25-96", alpha: 0.25, size: 96, optimize: true},
	{name: "mobilenet-0.5-64", alpha: 0.5, size: 64, optimize: true},
	{name: "mobilenet-0.25-64-unoptimized", alpha: 0.25, size: 64, optimize: false},
}

// parsePlanSpec resolves a -plan argument: "zoo" for every shipped
// example, or "mobilenet-<alpha>-<size>[-unoptimized]".
func parsePlanSpec(arg string) ([]planSpec, error) {
	if arg == "zoo" {
		return planZoo, nil
	}
	rest, ok := strings.CutPrefix(arg, "mobilenet-")
	if !ok {
		return nil, fmt.Errorf("unknown model spec %q (want \"zoo\" or \"mobilenet-<alpha>-<size>[-unoptimized]\")", arg)
	}
	spec := planSpec{name: arg, optimize: true}
	if trimmed, unopt := strings.CutSuffix(rest, "-unoptimized"); unopt {
		spec.optimize = false
		rest = trimmed
	}
	parts := strings.SplitN(rest, "-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("malformed model spec %q (want mobilenet-<alpha>-<size>)", arg)
	}
	alpha, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return nil, fmt.Errorf("malformed alpha in %q: %w", arg, err)
	}
	size, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("malformed input size in %q: %w", arg, err)
	}
	spec.alpha, spec.size = alpha, size
	return []planSpec{spec}, nil
}

// runPlan is the -plan mode: synthesize each requested example model,
// load it with plan verification on (the load itself runs the verifier),
// re-verify the exported IR, and print the lifetime table. Returns the
// process exit code: 1 when any plan is rejected.
func runPlan(arg string, w io.Writer) int {
	specs, err := parsePlanSpec(arg)
	if err != nil {
		fmt.Fprintln(w, "tfjs-vet:", err)
		return 1
	}
	if err := tf.SetBackend("cpu"); err != nil {
		fmt.Fprintln(w, "tfjs-vet:", err)
		return 1
	}
	failed := false
	for _, spec := range specs {
		if err := verifyPlanSpec(spec, w); err != nil {
			failed = true
			fmt.Fprintf(w, "tfjs-vet: plan %s: REJECTED\n", spec.name)
			printPlanErrors(w, err)
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintf(w, "tfjs-vet: %d plan(s) verified clean\n", len(specs))
	return 0
}

func verifyPlanSpec(spec planSpec, w io.Writer) error {
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: spec.alpha, InputSize: spec.size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		return err
	}
	defer model.Dispose()
	g, err := savedmodel.FromSequential(model, false)
	if err != nil {
		return err
	}
	// Loading runs the dataflow verifier (default-on); a defective plan
	// never comes back as a usable model.
	m, err := graphmodel.New(g, graphmodel.WithOptimize(spec.optimize))
	if err != nil {
		return err
	}
	defer m.Dispose()
	ir := m.PlanIR()
	ir.Model = spec.name
	// Belt and braces: re-verify the exported IR independently of the
	// load-time check before printing its table.
	if err := planvet.Verify(ir); err != nil {
		return err
	}
	lts := planvet.Lifetimes(ir)
	inter, freed := 0, 0
	for _, lt := range lts {
		if lt.Class == "inter" {
			inter++
			if lt.DisposedAt >= 0 {
				freed++
			}
		}
	}
	fmt.Fprintf(w, "plan %s: OK — %d steps, %d slots, %d roots (%d intermediate, %d freed mid-run)\n",
		spec.name, len(ir.Steps), len(ir.Slots), len(lts), inter, freed)
	fmt.Fprintln(w, planvet.FormatTable(ir))
	return nil
}

// printPlanErrors renders a verification failure: each structured
// PlanError on its own line when the error carries them, the plain error
// otherwise.
func printPlanErrors(w io.Writer, err error) {
	var verr *planvet.VerifyError
	if errors.As(err, &verr) {
		for _, pe := range verr.Errs {
			fmt.Fprintf(w, "  %s\n", pe)
		}
		return
	}
	fmt.Fprintf(w, "  %v\n", err)
}
