package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amdahlyd/internal/campaign"
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

// TestFixedCoordinateCellIDsPinned pins the cell IDs and seeds of a
// manifest with a fixed in-memory fraction (the two-level grid CI kills
// and resumes) and of one with a fixed Weibull shape. A cell's identity
// hashes its model, law, protocol, fraction and budget, never how the
// manifest spells them, so a change to the manifest grammar must leave
// every pin in place.
func TestFixedCoordinateCellIDsPinned(t *testing.T) {
	fixedShape := `{
  "name": "weibull-fixed",
  "seed": 5,
  "runs": 10,
  "patterns": 20,
  "platforms": ["Hera"],
  "scenarios": [1, 3],
  "dist": "weibull",
  "shape": 0.7,
  "axis": "lambda",
  "values": [1e-9, 2e-9]
}`
	fixedFrac, err := os.ReadFile(filepath.Join("testdata", "multilevel-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, manifest string
		want           []string
	}{
		{"fixed-frac", string(fixedFrac), []string{
			"4b17a55b120b8941 5889138014630591256",
			"b275016d28254c38 16947745822279476507",
			"56e3b45e248ea630 47449433360288294",
			"cc644e9f51c3b1eb 8221249933744888594",
			"758af870affce024 7027671343656893613",
			"8e053f8fc7c34e62 875768237028327996",
		}},
		{"fixed-shape", fixedShape, []string{
			"4061417436666c6c 9352288458721173090",
			"961f1b871ecdbb12 2816970760066430503",
			"3fc78a8359af2195 17374228172966283488",
			"3788724ae77f883e 15401411652621836725",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := campaign.ReadManifest(strings.NewReader(tc.manifest))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.Expand(m)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, c := range plan.Cells {
				got = append(got, fmt.Sprintf("%s %d", c.ID, c.Seed))
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("cell IDs and seeds moved:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestPresetManifestFilesMatchPresets runs the committed robustness and
// multilevel manifests through -manifest and the built-in presets of the
// same names through -preset, at -quick -seed 3: the pinned manifests
// and both reports must match byte for byte.
func TestPresetManifestFilesMatchPresets(t *testing.T) {
	for _, name := range []string{"robustness", "multilevel"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fromFile, fromPreset := filepath.Join(dir, "file"), filepath.Join(dir, "preset")
			for _, args := range [][]string{
				{"-manifest", filepath.Join("testdata", name+".json"), "-out", fromFile},
				{"-preset", name, "-out", fromPreset},
			} {
				if _, err := capture(t, func() error {
					return runCampaign(context.Background(), append(args, "-quick", "-seed", "3"))
				}); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
			}
			for _, file := range []string{"manifest.json", "report.txt", "report.csv"} {
				a, err := os.ReadFile(filepath.Join(fromFile, file))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(fromPreset, file))
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s differs between -manifest and -preset:\n--- manifest ---\n%s\n--- preset ---\n%s", file, a, b)
				}
			}
		})
	}
}
