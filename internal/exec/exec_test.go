package exec_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestConfigSurface pins Config's field set. Admission rule for a new
// field: two non-test callers at the parent commit must set different
// values for it. A value the code can derive from its inputs or from a
// measurement it already takes (which GEMM core, whether to pool, whether
// to verify a plan) is not an option, and an A/B-only switch belongs in
// the experiment that needs it, not here. CostModel fails the rule — it
// has one value, CostModelStatic — and stays only because bench/fixtures.go
// sets it and files under bench/ change only with the benchmark; the next
// benchmark change drops that line and this field (3 → 2). Verify and
// PoolPoison failed the rule — no non-test caller set either — and went:
// every load verifies, and pool poison is on exactly in race builds (a
// test that needs it calls the backend's SetPoolPoison).
func TestConfigSurface(t *testing.T) {
	want := []string{"Workers", "Optimize", "CostModel"}
	typ := reflect.TypeOf(exec.Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exec.Config fields = %v, want exactly %v (see the admission rule above)", got, want)
	}
}

func TestZeroConfigMeansDefaults(t *testing.T) {
	var c exec.Config
	if !c.OptimizeOn() {
		t.Fatal("zero config: OptimizeOn=false, want true")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
}

func TestMakeResolvesOptions(t *testing.T) {
	c := exec.Make(
		exec.WithWorkers(4),
		exec.WithCostModel(exec.CostModelStatic),
		exec.WithOptimize(false),
		nil, // nil options are tolerated
	)
	if c.Workers != 4 || c.CostModel != exec.CostModelStatic {
		t.Fatalf("unexpected config: %+v", c)
	}
	if c.OptimizeOn() {
		t.Fatal("explicit disable ignored: OptimizeOn=true")
	}
}

// TestMergePrecedence: a per-model override wins for fields it sets and
// inherits the rest — the precedence rule ConfigureExec, LoadGraphModel
// and serving.ModelOptions all rely on.
func TestMergePrecedence(t *testing.T) {
	base := exec.Make(exec.WithWorkers(8), exec.WithCostModel(exec.CostModelStatic), exec.WithOptimize(false))

	over := exec.Make(exec.WithWorkers(2))
	got := base.Merge(over)
	if got.Workers != 2 {
		t.Fatalf("override Workers must win: got %d", got.Workers)
	}
	if got.CostModel != exec.CostModelStatic {
		t.Fatalf("unset CostModel must inherit: got %q", got.CostModel)
	}
	if got.OptimizeOn() {
		t.Fatal("inherited Optimize=false lost in merge")
	}

	// An explicit re-enable in the override beats the base's disable.
	got = base.Merge(exec.Make(exec.WithOptimize(true)))
	if !got.OptimizeOn() {
		t.Fatal("override Optimize=true must win over base Optimize=false")
	}

	// Merging a zero config changes nothing.
	if got := base.Merge(exec.Config{}); got.Workers != 8 || got.CostModel != exec.CostModelStatic || got.OptimizeOn() {
		t.Fatalf("zero-config merge must be identity: %+v", got)
	}
}

func TestValidateRejectsUnknownCostModel(t *testing.T) {
	err := exec.Make(exec.WithCostModel("guessed")).Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown cost model") {
		t.Fatalf("want unknown-cost-model error, got %v", err)
	}
	// The measured cost model was removed: asking for it is an error that
	// says so, not an unknown name.
	err = exec.Make(exec.WithCostModel("measured")).Validate()
	if err == nil || !strings.Contains(err.Error(), "measured cost model was removed") {
		t.Fatalf("want removed-cost-model error, got %v", err)
	}
	for _, m := range []exec.CostModel{"", exec.CostModelStatic} {
		if err := exec.Make(exec.WithCostModel(m)).Validate(); err != nil {
			t.Fatalf("cost model %q must validate: %v", m, err)
		}
	}
}

// fakeBackend records what the interface-assertion plumbing delivers.
type fakeBackend struct {
	cfg  exec.Config
	nCfg int
}

func (f *fakeBackend) ApplyExecConfig(c exec.Config) { f.cfg = c; f.nCfg++ }

func TestApplyDispatchesViaInterface(t *testing.T) {
	f := &fakeBackend{}
	c := exec.Make(exec.WithWorkers(3))
	if !exec.Apply(f, c) {
		t.Fatal("Apply must report true for a Configurable backend")
	}
	if f.nCfg != 1 || f.cfg.Workers != 3 {
		t.Fatalf("config not delivered: %+v", f)
	}
	// A backend without the hook is ignored, not crashed on.
	if exec.Apply(struct{}{}, c) {
		t.Fatal("Apply must report false for a plain backend")
	}
}
