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
	"campaign/hetero/report.csv":           "ba93e3e2c2852b4e47dd0aed8aa17287f69e0d4202b1db75f86a68779f383936",
	"campaign/hetero/report.txt":           "bdd48296022640efd5f0d6c62330fac67dd1bbc572f6e8f7076db9190218d9d2",
	"campaign/multilevel/report.csv":       "5af1d4cc5ab4ff4e8dc85616bbb8ed80cbffb2f9d61fe2be18b70bc7a0cad661",
	"campaign/multilevel/report.txt":       "260fa56537abf5eda3ca48f4534b53472d3d077355ab057ccee954fed92c25d8",
	"campaign/robustness/report.csv":       "d5d8eccd0b01c7762afb537c55d54103b3c9db91385dc1f6a641176997722fab",
	"campaign/robustness/report.txt":       "45aee7bb572bd93e08e465f5e572775e0a7311e56a4d974746cc4f3a5acd8e3e",
	"campaign/smoke/report.csv":            "7d2cba4cd17e9cac175c54c54eb068ce587bae29b0d3901f17df75c49e0918ed",
	"campaign/smoke/report.txt":            "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv":      "398a644d89b0d60cb8224cf5adc6b9e3deb592b2a1844630e3135c99e272ea76",
	"campaign/sweep-alpha/report.txt":      "ce732c7c28466d9493cb97b08d50c437d431fb928ff8e06dbc4d5ec2219f9568",
	"fig/warm=false/fig2.csv":              "54669d440de102b31aa808b48c37302013606ab65947b2fc0aa8d911d8e58ce4",
	"fig/warm=false/fig3.csv":              "8968e6e892e977cde1795a162d62e87e9ee21568e7f39a5e6d8fea0761be3c94",
	"fig/warm=false/fig4.csv":              "a306f95dc69e02555f4521906793bcf83af45160dcb7f6760bafaf405059f24f",
	"fig/warm=false/fig5.csv":              "a1749a49ce5db1da0b8a7979e1e29dd522c7d8d2834001c48b0265db6a7e9936",
	"fig/warm=false/fig6.csv":              "a8584c369bf7a13d4c726d4c6bf5bf75235a243e981c111aab08ca552ac7476d",
	"fig/warm=false/fig7.csv":              "2ebf238def4501e810777ef6750d2db288dbbb06db790c6b49f27fae8ba96441",
	"fig/warm=false/figbaselines.csv":      "ded889b3647e9343b523da9b0d620151e97c901c95504892e08311b126b117d1",
	"fig/warm=false/figprofiles.csv":       "68ee86745f9492d3b858527c8ec0ac4234684d807d8066fdcc9d15d46d99f1fc",
	"fig/warm=false/stdout":                "e8e85e34b8748f3c88149d01d25d57c969fd5b723efff439c4a21f6196a7b80c",
	"fig/warm=true/fig2.csv":               "4ad7f9073e641dcfb0e1ac3b17b4cc073a3f6dd5633f2bc600907bc5f275b19f",
	"fig/warm=true/fig3.csv":               "8968e6e892e977cde1795a162d62e87e9ee21568e7f39a5e6d8fea0761be3c94",
	"fig/warm=true/fig4.csv":               "3669d143e9638402b1128933d31baa57203f7fa4b7a06962aaa311102c6784ca",
	"fig/warm=true/fig5.csv":               "8c1c6c6b454c11575d891311a2118a770f64277d1de156d99026b11681f0f666",
	"fig/warm=true/fig6.csv":               "ca36c19d9a0b041c3fe627341c028c51c3da9ff322b0766a71658eb98f73cdb6",
	"fig/warm=true/fig7.csv":               "affe1d34935185a9b3dfd63736c53b1c5a9a736e6248a071e6370bcbea075de6",
	"fig/warm=true/figbaselines.csv":       "aa0b4030be1eb4172bd0ffd7ea8d8c01066434bfb87a0883271a756bfa3596d3",
	"fig/warm=true/figprofiles.csv":        "68ee86745f9492d3b858527c8ec0ac4234684d807d8066fdcc9d15d46d99f1fc",
	"fig/warm=true/stdout":                 "eb4553474ba2ce88dd996a4cb1b01f2726e961245a0c12eaa0ab1f8bed579b3b",
	"hetero/warm=false/hetero.csv":         "645a961ab609889807f28f0b0ab44d128e349c6e8eabea2eccf982a59249bb63",
	"hetero/warm=false/stdout":             "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"hetero/warm=true/hetero.csv":          "645a961ab609889807f28f0b0ab44d128e349c6e8eabea2eccf982a59249bb63",
	"hetero/warm=true/stdout":              "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/warm=false/multilevel.csv": "3a589ad01d2b7076da2f07c10804d5a14097717989b6e646063ff491f55063ef",
	"multilevel/warm=false/stdout":         "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"multilevel/warm=true/multilevel.csv":  "5268bb22c6e51b5ab67eb61110fdf1a68d6ad7adaa74a99e583d9242734ba7ee",
	"multilevel/warm=true/stdout":          "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/warm=false/robustness.csv": "f2945131fd3c8d930fb4da8bbc46b1098b2cb105c2106b8ebdc8cf11adb5009f",
	"robustness/warm=false/stdout":         "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
	"robustness/warm=true/robustness.csv":  "4daf0333d4cb40920bd48aa517e61eb5903a9ce66efc2dbbdbe58003cd1ce9cc",
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
