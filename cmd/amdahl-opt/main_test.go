package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), errRun
}

func TestRunDefault(t *testing.T) {
	out, err := capture(t, func() error { return run(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Hera", "first-order", "numerical", "Young", "validity"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	// Hera scenario 1 at α=0.1: P* ≈ 219, T* ≈ 6239.
	if !strings.Contains(out, "218.9") || !strings.Contains(out, "6239") {
		t.Errorf("Theorem 2 numbers missing:\n%s", out)
	}
}

func TestRunScenario6HasNoFirstOrder(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-scenario", "6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no bounded first-order optimum") {
		t.Errorf("scenario 6 should explain the missing first-order row:\n%s", out)
	}
}

func TestRunLambdaOverride(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-lambda", "1e-10"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1e-10") {
		t.Errorf("λ override not reflected:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-platform", "nonexistent"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run([]string{"-scenario", "9"}); err == nil {
		t.Error("scenario 9 accepted")
	}
	if err := run([]string{"-alpha", "1.5"}); err == nil {
		t.Error("α > 1 accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// A bad override is an error, as on /v1/optimize, never a silent
	// fallback to the platform's own rate.
	for _, lambda := range []string{"-1e-9", "NaN", "+Inf"} {
		if err := run([]string{"-lambda", lambda}); err == nil {
			t.Errorf("-lambda %s accepted", lambda)
		}
	}
}
