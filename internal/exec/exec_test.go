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
// the experiment that needs it, not here.
func TestConfigSurface(t *testing.T) {
	want := []string{"Workers", "Optimize", "Verify", "CostModel", "PoolPoison"}
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
	if !c.OptimizeOn() || !c.VerifyOn() {
		t.Fatalf("zero config: OptimizeOn=%v VerifyOn=%v, want both true", c.OptimizeOn(), c.VerifyOn())
	}
	if c.MeasuredCost() {
		t.Fatal("zero config must select the static cost model")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
}

func TestMakeResolvesOptions(t *testing.T) {
	c := exec.Make(
		exec.WithWorkers(4),
		exec.WithCostModel(exec.CostModelMeasured),
		exec.WithOptimize(false),
		exec.WithVerify(false),
		nil, // nil options are tolerated
	)
	if c.Workers != 4 || !c.MeasuredCost() {
		t.Fatalf("unexpected config: %+v", c)
	}
	if c.OptimizeOn() || c.VerifyOn() {
		t.Fatalf("explicit disables ignored: OptimizeOn=%v VerifyOn=%v", c.OptimizeOn(), c.VerifyOn())
	}
}

// TestMergePrecedence: a per-model override wins for fields it sets and
// inherits the rest — the precedence rule ConfigureExec, LoadGraphModel
// and serving.ModelOptions all rely on.
func TestMergePrecedence(t *testing.T) {
	base := exec.Make(exec.WithWorkers(8), exec.WithCostModel(exec.CostModelMeasured), exec.WithVerify(false))

	over := exec.Make(exec.WithWorkers(2), exec.WithPoolPoison(true))
	got := base.Merge(over)
	if got.Workers != 2 {
		t.Fatalf("override Workers must win: got %d", got.Workers)
	}
	if !got.MeasuredCost() {
		t.Fatalf("unset CostModel must inherit: got %q", got.CostModel)
	}
	if got.PoolPoison == nil || !*got.PoolPoison {
		t.Fatal("override PoolPoison must win")
	}
	if got.VerifyOn() {
		t.Fatal("inherited Verify=false lost in merge")
	}

	// An explicit re-enable in the override beats the base's disable.
	got = base.Merge(exec.Make(exec.WithVerify(true)))
	if !got.VerifyOn() {
		t.Fatal("override Verify=true must win over base Verify=false")
	}

	// Merging a zero config changes nothing.
	if got := base.Merge(exec.Config{}); got.Workers != 8 || !got.MeasuredCost() || got.VerifyOn() {
		t.Fatalf("zero-config merge must be identity: %+v", got)
	}
}

func TestValidateRejectsUnknownCostModel(t *testing.T) {
	err := exec.Make(exec.WithCostModel("guessed")).Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown cost model") {
		t.Fatalf("want unknown-cost-model error, got %v", err)
	}
	for _, m := range []exec.CostModel{"", exec.CostModelStatic, exec.CostModelMeasured} {
		if err := exec.Make(exec.WithCostModel(m)).Validate(); err != nil {
			t.Fatalf("cost model %q must validate: %v", m, err)
		}
	}
}

// fakeBackend records what the interface-assertion plumbing delivers.
type fakeBackend struct {
	cfg   exec.Config
	nCfg  int
	hint  *exec.StepHint
	nHint int
}

func (f *fakeBackend) ApplyExecConfig(c exec.Config) { f.cfg = c; f.nCfg++ }
func (f *fakeBackend) SetStepHint(h *exec.StepHint)  { f.hint = h; f.nHint++ }

func TestApplyAndHintDispatchViaInterfaces(t *testing.T) {
	f := &fakeBackend{}
	c := exec.Make(exec.WithWorkers(3))
	if !exec.Apply(f, c) {
		t.Fatal("Apply must report true for a Configurable backend")
	}
	if f.nCfg != 1 || f.cfg.Workers != 3 {
		t.Fatalf("config not delivered: %+v", f)
	}
	h := &exec.StepHint{Flops: 18}
	exec.HintStep(f, h)
	if f.nHint != 1 || f.hint != h {
		t.Fatalf("hint not delivered: %+v", f)
	}
	exec.HintStep(f, nil)
	if f.nHint != 2 || f.hint != nil {
		t.Fatalf("nil hint must clear: %+v", f)
	}
	// Backends without the hooks are ignored, not crashed on.
	if exec.Apply(struct{}{}, c) {
		t.Fatal("Apply must report false for a plain backend")
	}
	exec.HintStep(struct{}{}, h)
}
