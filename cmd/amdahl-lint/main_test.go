package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the amdahl-lint binary into a temp dir and returns
// its absolute path.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "amdahl-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build amdahl-lint: %v\n%s", err, out)
	}
	return bin
}

// writeScratchModule lays out a throwaway module under dir.
func writeScratchModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runLint runs the binary over ./... of the module in dir and returns
// its combined output. Every fixture here violates a rule, so anything
// but exit status 1 fails the test.
func runLint(t *testing.T, dir, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append(args, "./...")...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("amdahl-lint %v: want exit status 1, got %v\n%s", args, err, out)
	}
	return string(out)
}

// TestLintSuppressionAndDirectives drives the //lint:allow machinery
// through the built binary over a scratch module: a reasoned directive
// suppresses its diagnostic, a reasonless one is rejected and
// suppresses nothing, and a directive that suppresses nothing is
// reported stale. The -format=github pass renders the same findings as
// workflow annotations.
func TestLintSuppressionAndDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go list")
	}
	bin := buildLint(t)
	dir := t.TempDir()
	writeScratchModule(t, dir, map[string]string{
		"go.mod": "module scratch\n\ngo 1.24\n",
		"lib/lib.go": `package lib

import "os"

func suppressed() error {
	//lint:allow atomicwrite scratch fixture: a reasoned directive suppresses
	return os.WriteFile("suppressed", nil, 0o644)
}

func unsuppressed() error {
	return os.WriteFile("unsuppressed", nil, 0o644)
}

func reasonless() error {
	//lint:allow atomicwrite
	return os.WriteFile("reasonless", nil, 0o644)
}

func stale() int {
	//lint:allow atomicwrite nothing below violates, so this directive is stale
	return 1
}
`,
	})
	out := runLint(t, dir, bin)

	// The suppressed write is on line 7, the unsuppressed one on line 11,
	// the reasonless directive and its write on lines 15-16, the stale
	// directive on line 20.
	if strings.Contains(out, "lib.go:7:") {
		t.Errorf("reasoned //lint:allow did not suppress:\n%s", out)
	}
	wants := []string{
		"lib.go:11:9: os.WriteFile",
		"lib.go:15:2: missing reason",
		"lib.go:16:9: os.WriteFile",
		"lib.go:20:2: //lint:allow atomicwrite suppresses nothing",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != len(wants) {
		t.Errorf("got %d findings, want %d:\n%s", len(lines), len(wants), out)
	}

	gh := runLint(t, dir, bin, "-format=github")
	if !strings.Contains(gh, "::error file=lib/lib.go,line=11,col=9,title=amdahl-lint atomicwrite::") {
		t.Errorf("-format=github did not annotate the unsuppressed violation:\n%s", gh)
	}
}

// TestLintFactsFlowAcrossPackages seeds a cross-package seedflow
// violation: the SeedParam fact earned in scratch/lib must reach the
// analysis of scratch/app, which the binary loads after it in
// dependency order.
func TestLintFactsFlowAcrossPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go list")
	}
	bin := buildLint(t)
	dir := t.TempDir()
	writeScratchModule(t, dir, map[string]string{
		"go.mod": "module scratch\n\ngo 1.24\n",
		"internal/rng/rng.go": `package rng

type Rand struct{ s uint64 }

func New(seed uint64) *Rand { return &Rand{s: seed} }
`,
		"lib/lib.go": `package lib

import "scratch/internal/rng"

func NewStream(seed uint64) *rng.Rand { return rng.New(seed) }
`,
		"app/app.go": `package app

import (
	"os"

	"scratch/lib"
)

func FromPid() interface{} { return lib.NewStream(uint64(os.Getpid())) }
`,
	})
	out := runLint(t, dir, bin)
	if !strings.Contains(out, "app.go:9:") ||
		!strings.Contains(out, "os.Getpid in a seed argument of NewStream") || !strings.Contains(out, "[seedflow]") {
		t.Errorf("cross-package seedflow violation not caught:\n%s", out)
	}
}
