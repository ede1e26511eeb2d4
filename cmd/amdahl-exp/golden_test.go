package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenDigests pins every figure, study and campaign-preset output of
// the CLI at -quick -seed 3: the SHA-256 of each stdout (output directory
// replaced by OUT) and of every file written. Warm and cold solves are
// pinned separately, because their CSVs differ in the last digits.
// Refactors of the drivers, the renderers or the seed derivation must
// leave every digest unchanged.
var goldenDigests = map[string]string{
	"campaign/hetero/report.csv":           "0be65bf09d1cb57da90a01153cbc1724c8d8e5d16fc02cda590addf0ac0fd89e",
	"campaign/hetero/report.txt":           "bdd48296022640efd5f0d6c62330fac67dd1bbc572f6e8f7076db9190218d9d2",
	"campaign/multilevel/report.csv":       "5af1d4cc5ab4ff4e8dc85616bbb8ed80cbffb2f9d61fe2be18b70bc7a0cad661",
	"campaign/multilevel/report.txt":       "260fa56537abf5eda3ca48f4534b53472d3d077355ab057ccee954fed92c25d8",
	"campaign/smoke/report.csv":            "7af4afb128c3cb1a6a763cb1ef9eede5ca0c5d58ee4a709c62141acbc7c7f319",
	"campaign/smoke/report.txt":            "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv":      "8948daefe41bcf0c3001672a59630f373fc0a9ee6d5f29825f3010dace8e2b88",
	"campaign/sweep-alpha/report.txt":      "ce732c7c28466d9493cb97b08d50c437d431fb928ff8e06dbc4d5ec2219f9568",
	"fig/warm=false/fig2.csv":              "e326ca664dd7c577a5831ecc5e1beb456709b6af4cef4abcd4072871f2bdbe9a",
	"fig/warm=false/fig3.csv":              "88a187cdc7bbad38d806ccd953b0fd3401f2c60b96dc7f0a8e7e77e17735556f",
	"fig/warm=false/fig4.csv":              "d78f5442d55ce5db3dfdc1934123ab98e5c8b9a84a4b31cac18d700a78d84c9c",
	"fig/warm=false/fig5.csv":              "f437926b8b5158a109d4f2744c9a49b96833c3d3d3a5cabda68787537a3202e2",
	"fig/warm=false/fig6.csv":              "7d24a404f87c3b0a04fd03c5c461636fbb7c47120c0419d3dc85e90bee1d80a6",
	"fig/warm=false/fig7.csv":              "510d38bb5eaa8b64bbe3bcc46923e73591d22482eff70671cb9d51f3344ee929",
	"fig/warm=false/figbaselines.csv":      "b19b42c4d90feb3f01e1a516d8e52d7ab852345ffc20a64774f79ae53649762b",
	"fig/warm=false/figprofiles.csv":       "e512000a021834ba77de87ad3740b669da891240df8e66684f537cac77c44468",
	"fig/warm=false/stdout":                "a4c3740f325ed7c011390a6031f5b0b6949bae0dfd28e130ec081559ea300ffe",
	"fig/warm=true/fig2.csv":               "c77817bd0bf579c0fdec462a017eea041a3aeeb241fad9522914d94dd83d60da",
	"fig/warm=true/fig3.csv":               "88a187cdc7bbad38d806ccd953b0fd3401f2c60b96dc7f0a8e7e77e17735556f",
	"fig/warm=true/fig4.csv":               "b1bc74e27fd57f758d92d4b9e6eef837a43d83b6e0335510555037f37fed89d9",
	"fig/warm=true/fig5.csv":               "5380ca14369f1ca3f58bfeb7083890abfeae5a0a7ce8eb6046870ca2a48fb0d9",
	"fig/warm=true/fig6.csv":               "c089fb1ca720776cdb4cb6d40fa6216479c746119a82b3eb81f184c833a28772",
	"fig/warm=true/fig7.csv":               "59c1ec6f8f1b963ae6d97fa96a37b5f3a2e67fd48068cdf7faf02fd11499f791",
	"fig/warm=true/figbaselines.csv":       "7ea35a159534cb523d26f1aceda829030082d4da5bc213d6de770465ddecda98",
	"fig/warm=true/figprofiles.csv":        "e512000a021834ba77de87ad3740b669da891240df8e66684f537cac77c44468",
	"fig/warm=true/stdout":                 "7017a40889cc02acd87ac1cd4beed545b4749ded26e52f340ea6bc6dde48f8d0",
	"hetero/warm=false/hetero.csv":         "ed4fce98a3405dfb3527b5cc901c7d81c700871cddb35477587cb5da8443b6b0",
	"hetero/warm=false/stdout":             "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"hetero/warm=true/hetero.csv":          "ed4fce98a3405dfb3527b5cc901c7d81c700871cddb35477587cb5da8443b6b0",
	"hetero/warm=true/stdout":              "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/warm=false/multilevel.csv": "42700bb77ea8197e0736c132288a9dc9edb34dd049fa9b3a390c25c1ddf54f86",
	"multilevel/warm=false/stdout":         "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"multilevel/warm=true/multilevel.csv":  "89be0a50004a9fde6ac97724b47499d34d009da3e7038999f38114fa0762e0d4",
	"multilevel/warm=true/stdout":          "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/warm=false/robustness.csv": "368fa79ba7fbf8eca598915947656ed689f3633f696f39988fa558bb94ce8b8a",
	"robustness/warm=false/stdout":         "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
	"robustness/warm=true/robustness.csv":  "b1db20f8a2d85e4e2ddc5c4de7e0fd8aecf23616719ed07ae66c08a51cfe9a00",
	"robustness/warm=true/stdout":          "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
}

// TestGoldenRenders runs the figure suite, the three study subcommands
// (warm and cold) and four campaign presets through the CLI entry points
// and compares each output's digest with goldenDigests. A mismatch logs
// every observed digest as a map literal.
func TestGoldenRenders(t *testing.T) {
	ctx := context.Background()
	got := map[string]string{}
	record := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	drivers := []struct {
		name string
		run  func(context.Context, []string) error
		args []string
	}{
		{"fig", run, []string{"-fig", "all"}},
		{"robustness", runRobustness, []string{"-shape", "0.7", "-scenario", "3"}},
		{"multilevel", runMultilevel, nil},
		{"hetero", runHetero, nil},
	}
	for _, warm := range []string{"true", "false"} {
		for _, d := range drivers {
			dir := t.TempDir()
			args := append([]string{"-quick", "-seed", "3", "-warm=" + warm, "-out", dir}, d.args...)
			out, err := capture(t, func() error { return d.run(ctx, args) })
			if err != nil {
				t.Fatalf("%s %v: %v", d.name, args, err)
			}
			prefix := d.name + "/warm=" + warm + "/"
			record(prefix+"stdout", []byte(strings.ReplaceAll(out, dir, "OUT")))
			csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range csvs {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				record(prefix+filepath.Base(path), data)
			}
		}
	}
	for _, preset := range []string{"smoke", "sweep-alpha", "multilevel", "hetero"} {
		dir := t.TempDir()
		if _, err := capture(t, func() error {
			return runCampaign(ctx, []string{"-preset", preset, "-quick", "-seed", "3", "-out", dir})
		}); err != nil {
			t.Fatalf("campaign -preset %s: %v", preset, err)
		}
		for _, name := range []string{"report.txt", "report.csv"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			record("campaign/"+preset+"/"+name, data)
		}
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		if got[name] != goldenDigests[name] {
			t.Errorf("%s: sha256 %q, want %q", name, got[name], goldenDigests[name])
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		for _, name := range names {
			if got[name] != "" {
				fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
			}
		}
		t.Logf("observed digests:\n%s", b.String())
	}
}
