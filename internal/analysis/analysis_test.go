package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// -update rewrites the golden files from current analyzer output.
var update = flag.Bool("update", false, "rewrite golden files")

// runFixture loads one fixture package from testdata/src and renders every
// diagnostic (suppressed ones annotated) relative to testdata/src.
func runFixture(t *testing.T, name string) string {
	t.Helper()
	loader, err := analysis.SharedLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join("testdata", "src")
	prog, err := loader.LoadPatterns(base, []string{name + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, analysis.All)
	if err != nil {
		t.Fatal(err)
	}
	absBase, err := filepath.Abs(base)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(absBase, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		if d.Suppressed {
			fmt.Fprintf(&b, "%s:%d:%d: %s: suppressed (%s): %s\n",
				file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Reason, d.Message)
		} else {
			fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
				file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	return b.String()
}

// checkGolden compares output against testdata/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestTensorLeakFixture(t *testing.T) {
	got := runFixture(t, "leakfix")
	checkGolden(t, "leakfix", got)
	for _, fragment := range []string{
		"result of ops.Ones is dropped",
		"never disposed, kept, returned, or passed on",
		"only on some paths",
	} {
		if !strings.Contains(got, fragment) {
			t.Errorf("expected a finding containing %q, got:\n%s", fragment, got)
		}
	}
	for _, clean := range []string{"CleanReturn", "CleanDefer", "CleanTidy", "CleanBranches"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive mentioning %s:\n%s", clean, got)
		}
	}
}

func TestSyncReadFixture(t *testing.T) {
	got := runFixture(t, "syncfix")
	checkGolden(t, "syncfix", got)
	if n := strings.Count(got, "blocks the event loop"); n != 2 {
		t.Errorf("want exactly 2 syncread findings (direct + via helper), got %d:\n%s", n, got)
	}
	if strings.Contains(got, "OffLoop") || strings.Count(got, "sync.go:39") > 0 {
		t.Errorf("sync read outside the loop must not be flagged:\n%s", got)
	}
}

func TestOpErrFixture(t *testing.T) {
	got := runFixture(t, "operrfix")
	checkGolden(t, "operrfix", got)
	if !strings.Contains(got, "panic with untyped value") {
		t.Errorf("missing untyped-panic finding:\n%s", got)
	}
	if n := strings.Count(got, "is discarded"); n != 2 {
		t.Errorf("want 2 discarded-error findings, got %d:\n%s", n, got)
	}
}

func TestSuppressions(t *testing.T) {
	got := runFixture(t, "suppressfix")
	checkGolden(t, "suppressfix", got)
	if !strings.Contains(got, "suppressed (demo allocation left leaking on purpose") {
		t.Errorf("justified suppression not honored:\n%s", got)
	}
	if !strings.Contains(got, "needs an analyzer name and a justification") {
		t.Errorf("bare directive not reported:\n%s", got)
	}
	// The unjustified line's leak must remain an active finding.
	active := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "tensorleak") && !strings.Contains(line, "suppressed") {
			active++
		}
	}
	if active != 1 {
		t.Errorf("want exactly 1 active tensorleak finding, got %d:\n%s", active, got)
	}
}

func TestPoolRetainFixture(t *testing.T) {
	got := runFixture(t, "poolretainfix")
	checkGolden(t, "poolretainfix", got)
	for _, fragment := range []string{
		"returned from exported ReturnDirect",
		"returned from exported ReturnTainted",
		"stored in field h.view",
		"stored in package variable cache",
		"sent on a channel",
		"read after DisposeData(id)",
	} {
		if !strings.Contains(got, fragment) {
			t.Errorf("expected a finding containing %q, got:\n%s", fragment, got)
		}
	}
	for _, clean := range []string{"CleanCopy", "cleanAccessor", "CleanLocalUse", "CleanReuse"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive mentioning %s:\n%s", clean, got)
		}
	}
}

func TestLockOrderFixture(t *testing.T) {
	got := runFixture(t, "lockorderfix")
	checkGolden(t, "lockorderfix", got)
	if n := strings.Count(got, "lockorder:"); n != 2 {
		t.Errorf("want exactly 2 lockorder findings (direct + helper chain), got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "runOnEngine → (*core.Engine).RunExclusive") {
		t.Errorf("expected the acquirer chain in the helper finding:\n%s", got)
	}
	for _, clean := range []string{"CleanReleaseFirst", "CleanNestedMutex", "CleanGoroutine"} {
		if strings.Contains(got, clean) {
			t.Errorf("false positive mentioning %s:\n%s", clean, got)
		}
	}
}

// TestRepoIsClean is the dogfooding gate in test form: the repository's own
// sources must vet clean (the CI workflow also runs the binary).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := analysis.SharedLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.LoadPatterns(loader.ModuleRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, analysis.All)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("unsuppressed finding: %s", d)
		}
		if d.Suppressed && d.Reason == "" {
			t.Errorf("suppression without justification: %s", d)
		}
	}
}

func TestAnalyzerSelection(t *testing.T) {
	sel, err := analysis.ByName("tensorleak,operr")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "tensorleak" || sel[1].Name != "operr" {
		t.Fatalf("unexpected selection: %v", sel)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("unknown analyzer must error")
	}
}
