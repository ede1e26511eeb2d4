package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

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

func TestRunSmall(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-runs", "20", "-patterns", "20", "-T", "6240", "-P", "219"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"PATTERN(T=6240", "mean pattern time", "execution overhead", "fail-stop"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunDefaultsToTheorem1Period(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-runs", "5", "-patterns", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hera's default P=512, Theorem-1 period ≈ 6397.6 s (prints 6398
	// at 4 significant digits).
	if !strings.Contains(out, "P=512") || !strings.Contains(out, "T=6398") {
		t.Errorf("defaults not applied:\n%s", out)
	}
}

func TestRunMachineSimulator(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-runs", "5", "-patterns", "5", "-P", "64", "-machine"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "machine-level") {
		t.Errorf("machine simulator not selected:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-platform", "unknown"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run([]string{"-scenario", "0"}); err == nil {
		t.Error("scenario 0 accepted")
	}
	if err := run([]string{"-runs", "0", "-patterns", "0", "-T", "-5"}); err == nil {
		t.Error("negative period accepted")
	}
	if err := run([]string{"-machine", "-P", "100.5", "-runs", "2", "-patterns", "2"}); err == nil {
		t.Error("fractional P accepted for machine simulation")
	}
}

// TestRunBudgetFlags: -runs 0 and -patterns 0 keep the simulator's 500
// default and the header prints the budget that ran, so the output
// equals the explicit run's byte for byte; a negative budget fails
// before anything prints.
func TestRunBudgetFlags(t *testing.T) {
	for _, tc := range []struct{ zero, explicit []string }{
		{[]string{"-runs", "0", "-patterns", "10"}, []string{"-runs", "500", "-patterns", "10"}},
		{[]string{"-runs", "10", "-patterns", "0"}, []string{"-runs", "10", "-patterns", "500"}},
	} {
		got, err := capture(t, func() error { return run(append(tc.zero, "-T", "6240", "-P", "219")) })
		if err != nil {
			t.Fatal(err)
		}
		want, err := capture(t, func() error { return run(append(tc.explicit, "-T", "6240", "-P", "219")) })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v does not run the default budget:\n%s\nwant\n%s", tc.zero, got, want)
		}
	}
	for _, args := range [][]string{{"-runs", "-1"}, {"-patterns", "-1"}} {
		out, err := capture(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if out != "" {
			t.Errorf("%v printed before failing:\n%s", args, out)
		}
	}
}
