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
	"campaign/hetero/report.csv":           "bd56414f136c817db5c098936a69a72a3f8a2cc3cb8e73e8713e49b5ac4fc691",
	"campaign/hetero/report.txt":           "bdd48296022640efd5f0d6c62330fac67dd1bbc572f6e8f7076db9190218d9d2",
	"campaign/multilevel/report.csv":       "5af1d4cc5ab4ff4e8dc85616bbb8ed80cbffb2f9d61fe2be18b70bc7a0cad661",
	"campaign/multilevel/report.txt":       "260fa56537abf5eda3ca48f4534b53472d3d077355ab057ccee954fed92c25d8",
	"campaign/robustness/report.csv":       "c04ed711c260df180ea33dd7e3f78203f33786ad7e851cf220c0a0414ae5f1a5",
	"campaign/robustness/report.txt":       "8dee502acd48358afdcd14baed89631c6cdeb76f6875f232cd5c0879eff4f797",
	"campaign/smoke/report.csv":            "ced06aac0c16185b013ad3ad1d38e10a74c1650933a93de363e3768952e4f622",
	"campaign/smoke/report.txt":            "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv":      "52bad1b90cd3526c5896a1732bdd349d7a20d1812b71f0433dfebb23455ac82a",
	"campaign/sweep-alpha/report.txt":      "ce732c7c28466d9493cb97b08d50c437d431fb928ff8e06dbc4d5ec2219f9568",
	"fig/warm=false/fig2.csv":              "0ebd6c9a97ba7f21b7010c826ca86911d85e2dd8c8fef931f0057493f676ee7c",
	"fig/warm=false/fig3.csv":              "b74912e20c01c775513d29d6a699c1e913a9dba1fc324c0728610366f9933e38",
	"fig/warm=false/fig4.csv":              "e5c75473992c3cbec83d01071e2ea9d64dbbd21f7089aede393189fd59013950",
	"fig/warm=false/fig5.csv":              "46e6732cdaa6f2b4e3ae7faad994a1101a63fd471c7c2d3c04c0c06055635ad7",
	"fig/warm=false/fig6.csv":              "3302d27188186183856fa3cdc2de36293062996fa84e46976a14cbc3cb33de26",
	"fig/warm=false/fig7.csv":              "92f6aa8e6e2e6f48e69b4d2fff5c26448cd1592d1bc48040d656e07653d578d3",
	"fig/warm=false/figbaselines.csv":      "55f4d6bd1dd715015ce81737715e3dd238fe2a366d78eea9042a6c15c00c0024",
	"fig/warm=false/figprofiles.csv":       "2e47f561b12cb1b46cd3ccfe4aa99b9509ed96294315ce1b45bd5c4378750622",
	"fig/warm=false/stdout":                "f175059da4e58779d4cba9ddf6cbfa1f5d8c4ec9ec1871fa35fbb24967b96333",
	"fig/warm=true/fig2.csv":               "f4997a93ab2b23cc379397a518b975be9aef6e3085a29ea953460c29fd2cf97b",
	"fig/warm=true/fig3.csv":               "b74912e20c01c775513d29d6a699c1e913a9dba1fc324c0728610366f9933e38",
	"fig/warm=true/fig4.csv":               "3242267d10495885a657e0ec63ad74694bc040d1cf349f6a622d329a608cd12a",
	"fig/warm=true/fig5.csv":               "def038ba0415058a206dc4adab5525a37a69c8646f4bdded6b86c9288f568579",
	"fig/warm=true/fig6.csv":               "850b7bfafa7e3353652e51c429a4abc8f688ddf3c0f881df64ff4fb3a18c7a3b",
	"fig/warm=true/fig7.csv":               "7831c922411c22c631e8f05c869e68b139633b8485e2c50519c395d421a14e0f",
	"fig/warm=true/figbaselines.csv":       "c3dca1774e8a9fd942a6a28df90a4e84e40f3ab273ea58a49011d5f1d4e9a3a1",
	"fig/warm=true/figprofiles.csv":        "2e47f561b12cb1b46cd3ccfe4aa99b9509ed96294315ce1b45bd5c4378750622",
	"fig/warm=true/stdout":                 "a13318389934d1fd56c6d21f00df4fc94fc9264c9eecac9d58e1476c73d2b55d",
	"hetero/warm=false/hetero.csv":         "c3ff50638326dba0d743f39d49aa86d4447953def5f9df2590e3e4f6357a2e8b",
	"hetero/warm=false/stdout":             "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"hetero/warm=true/hetero.csv":          "c3ff50638326dba0d743f39d49aa86d4447953def5f9df2590e3e4f6357a2e8b",
	"hetero/warm=true/stdout":              "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/warm=false/multilevel.csv": "de273ab0a33bd72051c09b11dec101d2cc58d178ed98ff01c96848e92308a86c",
	"multilevel/warm=false/stdout":         "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"multilevel/warm=true/multilevel.csv":  "3e770c81d608aa7eb93db85d2c2abb297066b7285dd71bc2b4bcd9ca7ff6f2eb",
	"multilevel/warm=true/stdout":          "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/warm=false/robustness.csv": "0100439601e0e59331fd0110d79b781c0ff43dd388f3e8a9da232583109ba43b",
	"robustness/warm=false/stdout":         "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
	"robustness/warm=true/robustness.csv":  "de9153da63012a6427e8bb9314d55e79968e800760e8c5767586464594fbdb7e",
	"robustness/warm=true/stdout":          "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
}

// TestGoldenRenders runs the figure suite, the three study subcommands
// (warm and cold) and five campaign presets through the CLI entry points
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
	for _, preset := range []string{"smoke", "sweep-alpha", "multilevel", "hetero", "robustness"} {
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
