package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCampaignManifestAndResume(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(manifest, []byte(`{
  "name": "cli-test",
  "seed": 3,
  "runs": 4,
  "patterns": 8,
  "platforms": ["Hera"],
  "scenarios": [1],
  "axis": "alpha",
  "values": [0.1, 0.2]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "run")
	stdout, err := capture(t, func() error {
		return runCampaign(context.Background(), []string{"-manifest", manifest, "-out", out})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "2 executed") || !strings.Contains(stdout, "report.txt") {
		t.Errorf("campaign output wrong:\n%s", stdout)
	}
	report, err := os.ReadFile(filepath.Join(out, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// Re-entering the directory requires -resume; with it, everything is
	// verified and skipped and the report is rewritten byte-identically.
	if _, err := capture(t, func() error {
		return runCampaign(context.Background(), []string{"-manifest", manifest, "-out", out})
	}); err == nil {
		t.Error("re-running without -resume succeeded")
	}
	stdout, err = capture(t, func() error {
		return runCampaign(context.Background(), []string{"-manifest", manifest, "-out", out, "-resume"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "2 skipped, 0 executed") {
		t.Errorf("resume output wrong:\n%s", stdout)
	}
	report2, err := os.ReadFile(filepath.Join(out, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(report) != string(report2) {
		t.Error("resumed report not byte-identical")
	}
}

func TestRunCampaignPresetAndFaults(t *testing.T) {
	dir := t.TempDir()
	faults := filepath.Join(dir, "faults.json")
	if err := os.WriteFile(faults, []byte(`{"*": {"fail_attempts": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := capture(t, func() error {
		return runCampaign(context.Background(), []string{"-preset", "smoke",
			"-runs", "2", "-patterns", "4", "-out", filepath.Join(dir, "run"),
			"-faults", faults, "-retries", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "6 retries") {
		t.Errorf("fault plan did not drive retries:\n%s", stdout)
	}
}

func TestRunCampaignList(t *testing.T) {
	stdout, err := capture(t, func() error {
		return runCampaign(context.Background(), []string{"-list"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smoke", "robustness", "multilevel", "sweep-alpha"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing preset %s:\n%s", name, stdout)
		}
	}
}

// Every flag error fails before anything prints: a run summary of zero
// cells ahead of the error would read like a campaign that ran.
func TestRunCampaignFlagErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	cases := [][]string{
		{},                                     // no manifest or preset
		{"-preset", "nonesuch", "-out", out},   // unknown preset
		{"-preset", "smoke"},                   // missing -out
		{"-preset", "smoke", "-manifest", "m"}, // mutually exclusive
		{"-preset", "smoke", "-out", out, "stray"},
		{"-preset", "smoke", "-runs", "-3", "-out", out}, // override fails manifest validation
	}
	for _, args := range cases {
		stdout, err := capture(t, func() error { return runCampaign(context.Background(), args) })
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
		if stdout != "" {
			t.Errorf("args %v printed before failing:\n%s", args, stdout)
		}
	}
}
