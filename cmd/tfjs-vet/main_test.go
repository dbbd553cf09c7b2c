package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles the tfjs-vet binary once per test run.
func buildVet(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the CLI binary")
	}
	bin := filepath.Join(t.TempDir(), "tfjs-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building tfjs-vet: %v\n%s", err, out)
	}
	return bin
}

// runVet executes the binary and returns its combined output and exit
// code.
func runVet(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running tfjs-vet %v: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestExitCodes pins the CLI contract the CI gates rely on: exit 0 with
// "clean" on a clean package, exit 1 with findings on a dirty one, and
// the same for the -plan IR tier.
func TestExitCodes(t *testing.T) {
	bin := buildVet(t)
	fixtures, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fixtures); err != nil {
		t.Fatal(err)
	}

	t.Run("clean-package", func(t *testing.T) {
		out, code := runVet(t, bin, ".", "../../internal/planvet")
		if code != 0 {
			t.Fatalf("clean package must exit 0, got %d:\n%s", code, out)
		}
		if !strings.Contains(out, "clean") {
			t.Errorf("expected a clean summary line:\n%s", out)
		}
	})

	t.Run("dirty-fixture", func(t *testing.T) {
		out, code := runVet(t, bin, fixtures, "./poolretainfix")
		if code != 1 {
			t.Fatalf("fixture findings must exit 1, got %d:\n%s", code, out)
		}
		if !strings.Contains(out, "poolretain:") {
			t.Errorf("expected poolretain findings:\n%s", out)
		}
	})

	t.Run("dirty-fixture-selected-analyzer", func(t *testing.T) {
		out, code := runVet(t, bin, fixtures, "-run", "poolretain", "./poolretainfix", "./lockorderfix")
		if code != 1 {
			t.Fatalf("poolretain findings must exit 1, got %d:\n%s", code, out)
		}
		if !strings.Contains(out, "poolretain:") || strings.Contains(out, "lockorder:") {
			t.Errorf("expected only poolretain findings:\n%s", out)
		}
	})

	t.Run("plan-clean", func(t *testing.T) {
		out, code := runVet(t, bin, ".", "-plan", "mobilenet-0.25-64")
		if code != 0 {
			t.Fatalf("clean plan must exit 0, got %d:\n%s", code, out)
		}
		if !strings.Contains(out, "verified clean") || !strings.Contains(out, "ROOT") {
			t.Errorf("expected verification summary and lifetime table:\n%s", out)
		}
	})

	t.Run("plan-bad-spec", func(t *testing.T) {
		out, code := runVet(t, bin, ".", "-plan", "bogus")
		if code != 1 {
			t.Fatalf("bad plan spec must exit 1, got %d:\n%s", code, out)
		}
		if !strings.Contains(out, "unknown model spec") {
			t.Errorf("expected the spec error:\n%s", out)
		}
	})
}
