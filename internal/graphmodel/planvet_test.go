package graphmodel_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/exec"
	"repro/internal/graphmodel"
	"repro/internal/models"
	"repro/internal/planvet"
	"repro/internal/savedmodel"
)

// The planvet acceptance gate (ISSUE 10): the dataflow verifier must
// convict every injected defect class on real compiled MobileNet plans —
// the plans that actually serve — and must pass every clean shipped
// model with zero false positives.

// mobileNetGraph exports a seeded MobileNet as a serving GraphDef.
func mobileNetGraph(t testing.TB, alpha float64, inputSize int) *savedmodel.GraphDef {
	t.Helper()
	model, err := models.MobileNetV1(models.MobileNetConfig{
		Alpha: alpha, InputSize: inputSize, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Dispose()
	g, err := savedmodel.FromSequential(model, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlanVerifyZeroFalsePositives loads every shipped example-model
// shape and checks the default-on plan verification accepts each —
// loading itself runs the verifier, and the exported IR must re-verify
// clean. Any failure here is a false positive: these are the plans every
// Execute runs, on every backend — including a plan with an error step
// (a node that cannot be lowered still occupies its slot and its place in
// the liveness schedule) and a plan that has executed on webgl.
func TestPlanVerifyZeroFalsePositives(t *testing.T) {
	cases := []struct {
		name    string
		g       *savedmodel.GraphDef
		opts    []graphmodel.Option
		backend string // execute once here before exporting; "" = load only
	}{
		{"tiny", tinyGraph(), nil, ""},
		{"mobilenet-0.25-96", mobileNetGraph(t, 0.25, 96), nil, ""},
		{"mobilenet-0.5-64", mobileNetGraph(t, 0.5, 64), nil, ""},
		{"mobilenet-unoptimized", mobileNetGraph(t, 0.25, 64),
			[]graphmodel.Option{graphmodel.WithExecOptions(exec.WithOptimize(false))}, ""},
		{"error-step", brokenNodeGraph(savedmodel.NodeDef{Op: "FFT"}), nil, ""},
		{"mobilenet-on-webgl", mobileNetGraph(t, 0.25, 32), nil, "webgl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.backend != "" {
				onBackend(t, tc.backend)
			}
			m, err := graphmodel.New(tc.g, tc.opts...)
			if err != nil {
				t.Fatalf("load-time plan verification rejected a clean model: %v", err)
			}
			defer m.Dispose()
			if tc.backend != "" {
				x := imageFeed(32)
				defer x.Dispose()
				predictBits(t, m, x)
			}
			if err := planvet.Verify(m.PlanIR()); err != nil {
				t.Fatalf("exported IR fails re-verification: %v", err)
			}
		})
	}
}

// TestPlanVerifyConvictsMutatedMobileNet corrupts the real compiled
// MobileNet plan with each of the five defect classes and asserts the
// verifier convicts every one with the matching defect kind — 5/5, on
// the production plan, not a toy.
func TestPlanVerifyConvictsMutatedMobileNet(t *testing.T) {
	m, err := graphmodel.New(mobileNetGraph(t, 0.25, 96))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	ir := m.PlanIR()
	if ir == nil {
		t.Fatal("no fast plan for MobileNet")
	}

	want := map[planvet.Mutation]planvet.Kind{
		planvet.MutEarlyDispose:  planvet.KindUseAfterFree,
		planvet.MutDoubleDispose: planvet.KindDoubleDispose,
		planvet.MutAliasCycle:    planvet.KindAliasCycle,
		planvet.MutUndefinedSlot: planvet.KindUndefinedSlot,
		planvet.MutLeakedRoot:    planvet.KindLeakedRoot,
	}
	caught := 0
	for _, mut := range planvet.Mutations {
		cp, ok := planvet.Corrupt(ir, mut)
		if !ok {
			t.Errorf("mutation %s: no injection site in the MobileNet plan", mut)
			continue
		}
		err := planvet.Verify(cp)
		if err == nil {
			t.Errorf("mutation %s: verifier accepted the corrupted plan", mut)
			continue
		}
		var ve *planvet.VerifyError
		if !errors.As(err, &ve) {
			t.Errorf("mutation %s: error is %T, want *VerifyError", mut, err)
			continue
		}
		found := false
		for _, pe := range ve.Errs {
			if pe.Kind == want[mut] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mutation %s: no %s defect among %d reported", mut, want[mut], len(ve.Errs))
			continue
		}
		caught++
	}
	if caught != len(planvet.Mutations) {
		t.Fatalf("verifier caught %d/%d mutation classes", caught, len(planvet.Mutations))
	}
	// The original exported IR must still be clean: Corrupt works on
	// copies.
	if err := planvet.Verify(ir); err != nil {
		t.Fatalf("mutation run corrupted the exported IR: %v", err)
	}
}

// TestPlanLifetimeTable sanity-checks the rendered lifetime table for the
// MobileNet plan: every class of container appears, and every
// intermediate is freed at a dispose point (MobileNet is a chain — no
// dead branches, so the reverse-scan liveness must free everything).
func TestPlanLifetimeTable(t *testing.T) {
	m, err := graphmodel.New(mobileNetGraph(t, 0.25, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Dispose()
	ir := m.PlanIR()
	inter, freed := 0, 0
	for _, lt := range planvet.Lifetimes(ir) {
		if lt.Class == "inter" {
			inter++
			if lt.DisposedAt >= 0 {
				freed++
			}
		}
	}
	if inter == 0 || freed != inter {
		t.Fatalf("MobileNet lifetimes: %d intermediates, %d freed — want all freed", inter, freed)
	}
	table := planvet.FormatTable(ir)
	for _, frag := range []string{"ROOT", "weight", "feed", "output", "inter"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("lifetime table missing %q", frag)
		}
	}
}

// TestLoadAllocBudget: loading the benchmark's MobileNet (α=0.25 at 96,
// 1000 classes) — validate, optimize, verify, compile the plan, upload the
// weights — makes 2,677 allocations; the budget is 5% over that. It made
// 23,198 while the graph optimizer rebuilt its node, consumer and output
// indexes after every rewrite: twice per batch-norm fold, once per
// constant fold and once per fusion.
func TestLoadAllocBudget(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation budget: sync.Pool drops entries at random under -race")
	}
	g := mobileNetGraph(t, 0.25, 96)
	load := func() {
		m, err := graphmodel.New(g)
		if err != nil {
			t.Fatal(err)
		}
		m.Dispose()
	}
	load()
	const budget = 2810
	allocs := testing.AllocsPerRun(3, load)
	t.Logf("graphmodel.New: %.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("graphmodel.New allocates %.0f, budget %d", allocs, budget)
	}
}
