package main

import (
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

// genTestTrace writes a small trace file and returns its path.
func genTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	err := runGen([]string{"-platform", "hera", "-procs", "256",
		"-horizon", "5e6", "-seed", "3", "-out", path})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenStatReplayPipeline(t *testing.T) {
	path := genTestTrace(t)

	out, err := capture(t, func() error {
		return runStat([]string{"-in", path, "-rate", "4.3264e-6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"events:", "inter-arrival", "KS test", "consistent with"} {
		if !strings.Contains(out, frag) {
			t.Errorf("stat output missing %q:\n%s", frag, out)
		}
	}

	out, err = capture(t, func() error {
		return runReplay([]string{"-in", path, "-platform", "hera",
			"-scenario", "1", "-P", "256"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"replayed", "mean pattern time", "execution overhead"} {
		if !strings.Contains(out, frag) {
			t.Errorf("replay output missing %q:\n%s", frag, out)
		}
	}
}

func TestStatRejectsWrongRate(t *testing.T) {
	path := genTestTrace(t)
	out, err := capture(t, func() error {
		// 5× the true platform rate: KS must reject.
		return runStat([]string{"-in", path, "-rate", "2.2e-5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "REJECTED") {
		t.Errorf("KS should reject a 5× wrong rate:\n%s", out)
	}
}

func TestSubcommandErrors(t *testing.T) {
	if err := runGen([]string{"-platform", "unknown"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := runGen([]string{"-horizon", "-5"}); err == nil {
		t.Error("negative horizon accepted")
	}
	if err := runStat([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := runStat([]string{"-in", "/nonexistent/file.csv"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := runReplay([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := runReplay([]string{"-in", "/nonexistent.csv", "-scenario", "7"}); err == nil {
		t.Error("bad scenario accepted")
	}
}

func TestGenDistWeibullPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "weibull.csv")
	err := runGen([]string{"-platform", "hera", "-procs", "64",
		"-horizon", "3e9", "-seed", "5", "-dist", "weibull", "-shape", "0.7",
		"-out", path})
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return runStat([]string{"-in", path, "-dist", "weibull", "-shape", "0.7",
			"-lambda", "1.69e-8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"KS test (per-proc)", "consistent with", "weibull"} {
		if !strings.Contains(out, frag) {
			t.Errorf("stat output missing %q:\n%s", frag, out)
		}
	}
	// The wrong shape must be detected.
	out, err = capture(t, func() error {
		return runStat([]string{"-in", path, "-dist", "weibull", "-shape", "0.4",
			"-lambda", "1.69e-8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "REJECTED") {
		t.Errorf("mis-shaped KS not rejected:\n%s", out)
	}
}

func TestGenDistRejectsUnknown(t *testing.T) {
	if err := runGen([]string{"-dist", "cauchy", "-shape", "1"}); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestStatDistNeedsLambda(t *testing.T) {
	path := genTestTrace(t)
	if err := runStat([]string{"-in", path, "-dist", "weibull", "-shape", "0.7"}); err == nil {
		t.Error("-dist without -lambda accepted")
	}
}

// The default gen path must keep producing byte-identical traces for a
// fixed seed (the horizon header is new, but events must not move).
func TestGenDefaultStillExponential(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	if err := runGen([]string{"-procs", "32", "-horizon", "1e9", "-seed", "7", "-out", a}); err != nil {
		t.Fatal(err)
	}
	if err := runGen([]string{"-procs", "32", "-horizon", "1e9", "-seed", "7",
		"-dist", "exponential", "-out", b}); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Error("explicit -dist exponential differs from the default path")
	}
}

func TestShapeFlagPairing(t *testing.T) {
	if err := runGen([]string{"-dist", "exponential", "-shape", "0.5"}); err == nil {
		t.Error("gen: -shape with exponential accepted")
	}
	if err := runGen([]string{"-dist", "weibull"}); err == nil {
		t.Error("gen: weibull without -shape accepted")
	}
	path := genTestTrace(t)
	if err := runStat([]string{"-in", path, "-dist", "gamma", "-lambda", "1e-8"}); err == nil {
		t.Error("stat: gamma without -shape accepted")
	}
}

func TestStatShapeWithoutDistRejected(t *testing.T) {
	path := genTestTrace(t)
	if err := runStat([]string{"-in", path, "-shape", "0.7", "-lambda", "1e-8"}); err == nil {
		t.Error("stat: -shape/-lambda without -dist accepted")
	}
}

// TestReplayWithoutWholePatternFails: a trace that completes no pattern
// — too short a horizon, or too long a period — is an error naming the
// horizon and the minimum exposure T+V+C, never a NaN mean.
func TestReplayWithoutWholePatternFails(t *testing.T) {
	dir := t.TempDir()
	short, long := filepath.Join(dir, "short.csv"), filepath.Join(dir, "long.csv")
	if err := runGen([]string{"-procs", "4", "-horizon", "100", "-out", short}); err != nil {
		t.Fatal(err)
	}
	if err := runGen([]string{"-procs", "64", "-horizon", "1e7", "-out", long}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-in", short}, {"-in", long, "-T", "1e9"}} {
		out, err := capture(t, func() error { return runReplay(args) })
		if err == nil || !strings.Contains(err.Error(), "horizon") || !strings.Contains(err.Error(), "T+V+C") {
			t.Errorf("%v: error %v, want one naming the horizon and T+V+C", args, err)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%v printed a NaN:\n%s", args, out)
		}
	}
}
