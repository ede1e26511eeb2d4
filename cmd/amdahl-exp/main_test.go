package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
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

func TestRunFig2Quick(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-fig", "2", "-quick", "-platform", "hera",
			"-runs", "10", "-patterns", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Fig. 2", "Hera", "scenario 6"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestRunFig5PrintsSlopes(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-fig", "5", "-quick", "-runs", "10", "-patterns", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "log-log slopes") {
		t.Errorf("Fig. 5 should report slopes:\n%s", out)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	_, err := capture(t, func() error {
		return run(context.Background(), []string{"-fig", "7", "-quick", "-out", dir,
			"-runs", "10", "-patterns", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "pstar/scenario 1 (optimal)") {
		t.Error("CSV content missing expected series")
	}
}

func TestRunProfilesExtension(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-fig", "profiles", "-quick", "-runs", "10", "-patterns", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Profile study") || !strings.Contains(out, "gustafson") {
		t.Errorf("profile study output wrong:\n%s", out)
	}
}

// Bad flags fail before any figure renders: an unknown name late in a
// -fig list and a negative budget included.
func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-fig", "99"},
		{"-platform", "unknown"},
		{"-fig", "4,", "-quick", "-runs", "2", "-patterns", "2"},
		{"-fig", "7,bogus", "-quick", "-runs", "2", "-patterns", "2"},
		{"-fig", "7", "-quick", "-runs", "-5"},
		{"-fig", "7", "-quick", "-patterns", "-1"},
		{"-fig", "4", "-quick", "-warm=false"}, // every cell solves its own optimum: no warm-start switch
	}
	for _, args := range cases {
		out, err := capture(t, func() error { return run(context.Background(), args) })
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
		if out != "" {
			t.Errorf("args %v rendered before failing:\n%s", args, out)
		}
	}
}

func TestRunRobustnessQuick(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return runRobustness(context.Background(), []string{"-dist", "weibull", "-shape", "0.7",
			"-scenario", "1", "-quick", "-runs", "10", "-patterns", "20",
			"-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Robustness study", "weibull", "scenario 1", "gap"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "robustness.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "overhead_sim_retuned") {
		t.Error("robustness CSV missing retuned series")
	}
}

func TestRunRobustnessRejectsBadFlags(t *testing.T) {
	if err := runRobustness(context.Background(), []string{"-dist", "cauchy"}); err == nil {
		t.Error("unknown distribution accepted")
	}
	if err := runRobustness(context.Background(), []string{"-scenario", "9"}); err == nil {
		t.Error("scenario 9 accepted")
	}
	if err := runRobustness(context.Background(), []string{"-platform", "nonesuch"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := capture(t, func() error {
		return runRobustness(context.Background(), []string{"-scenario", "1", "-quick", "-runs", "-5"})
	}); err == nil {
		t.Error("negative -runs accepted")
	}
}

func TestRunRobustnessExponentialRejectsShape(t *testing.T) {
	if err := runRobustness(context.Background(), []string{"-dist", "exponential", "-shape", "0.3"}); err == nil {
		t.Error("-shape with -dist exponential accepted")
	}
}

func TestRunRejectsStrayPositional(t *testing.T) {
	if err := run(context.Background(), []string{"robustnes", "-quick"}); err == nil {
		t.Error("misspelled subcommand fell through to the figure suite")
	}
	if err := runRobustness(context.Background(), []string{"extra"}); err == nil {
		t.Error("stray positional accepted by robustness")
	}
}

func TestRunRobustnessLognormalNeedsShape(t *testing.T) {
	if err := runRobustness(context.Background(), []string{"-dist", "lognormal", "-quick"}); err == nil {
		t.Error("lognormal without explicit -shape accepted")
	}
}

func TestRunMultilevelQuick(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return runMultilevel(context.Background(), []string{"-quick", "-runs", "10", "-patterns", "20",
			"-scenario", "3", "-frac", "0.0667,0.2", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Multilevel study", "Hera", "K*", "saving"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "multilevel.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}

func TestRunMultilevelRejectsBadFlags(t *testing.T) {
	if _, err := capture(t, func() error {
		return runMultilevel(context.Background(), []string{"-scenario", "9"})
	}); err == nil {
		t.Error("scenario 9 accepted")
	}
	if _, err := capture(t, func() error {
		return runMultilevel(context.Background(), []string{"-frac", "0.1,bogus"})
	}); err == nil {
		t.Error("malformed -frac accepted")
	}
	if _, err := capture(t, func() error {
		return runMultilevel(context.Background(), []string{"stray"})
	}); err == nil {
		t.Error("stray positional accepted")
	}
	if _, err := capture(t, func() error {
		return runMultilevel(context.Background(), []string{"-scenario", "3", "-quick", "-patterns", "-1"})
	}); err == nil {
		t.Error("negative -patterns accepted")
	}
}

// Entries of a -fig list are trimmed once, so "4, 5" names its CSV
// fig5.csv and prints Fig. 5's slope table like "4,5" does.
func TestRunFigListWithSpaces(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-fig", "4, 5", "-quick", "-runs", "10", "-patterns", "20",
			"-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "log-log slopes") {
		t.Errorf("Fig. 5 slopes missing:\n%s", out)
	}
	for _, name := range []string{"fig4.csv", "fig5.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}

func TestRunStrayPositionalListsSubcommands(t *testing.T) {
	err := run(context.Background(), []string{"hetro"})
	if err == nil {
		t.Fatal("stray positional accepted")
	}
	for _, sub := range []string{"robustness", "multilevel", "hetero", "campaign"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not list subcommand %s", err, sub)
		}
	}
}
