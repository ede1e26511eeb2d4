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
	"campaign/robustness/report.csv":       "8db089af0a3a7acdb762de558b5430928433ae97915a3fe5974a165860f1d5c9",
	"campaign/robustness/report.txt":       "8dee502acd48358afdcd14baed89631c6cdeb76f6875f232cd5c0879eff4f797",
	"campaign/smoke/report.csv":            "7af4afb128c3cb1a6a763cb1ef9eede5ca0c5d58ee4a709c62141acbc7c7f319",
	"campaign/smoke/report.txt":            "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv":      "8948daefe41bcf0c3001672a59630f373fc0a9ee6d5f29825f3010dace8e2b88",
	"campaign/sweep-alpha/report.txt":      "ce732c7c28466d9493cb97b08d50c437d431fb928ff8e06dbc4d5ec2219f9568",
	"fig/warm=false/fig2.csv":              "14fa763a0ab04aec2a570171da9aca1c535212e1d18a82999e3278348afb44db",
	"fig/warm=false/fig3.csv":              "7b031caa5d679db28e1a9366e94cb64901ca29e34edd5e5fb6554ecaa1a610e8",
	"fig/warm=false/fig4.csv":              "e72fd9efcfadc445158b381123818ea505832f0012ec08eeed994fbf28da2ef1",
	"fig/warm=false/fig5.csv":              "46ce9c4e6d052dfbbd725d6a0587e429526e5cc82e070f281dea5cf79be7b4d0",
	"fig/warm=false/fig6.csv":              "bfb5fc14e9001247e840256eaa1f5dd92e874de17c1fca5b94cc0aff2ec7fcf9",
	"fig/warm=false/fig7.csv":              "88827dab93b17a215936a955f9d5bff8ea19346cc8667834996b134e3293a426",
	"fig/warm=false/figbaselines.csv":      "e0269a95138b3569083fb09a805a9ee05ceba21e6c175b63a3124691924badca",
	"fig/warm=false/figprofiles.csv":       "e0a989a10ea8f581b386c56d4d7a29c12cbddbd5632bfb5189bf3477c12004a3",
	"fig/warm=false/stdout":                "7515fee330edf4ea8915c17345a2f4c4a5d037b8e1b5e329fa5f84d03845c195",
	"fig/warm=true/fig2.csv":               "c77817bd0bf579c0fdec462a017eea041a3aeeb241fad9522914d94dd83d60da",
	"fig/warm=true/fig3.csv":               "7b031caa5d679db28e1a9366e94cb64901ca29e34edd5e5fb6554ecaa1a610e8",
	"fig/warm=true/fig4.csv":               "b1bc74e27fd57f758d92d4b9e6eef837a43d83b6e0335510555037f37fed89d9",
	"fig/warm=true/fig5.csv":               "5380ca14369f1ca3f58bfeb7083890abfeae5a0a7ce8eb6046870ca2a48fb0d9",
	"fig/warm=true/fig6.csv":               "c089fb1ca720776cdb4cb6d40fa6216479c746119a82b3eb81f184c833a28772",
	"fig/warm=true/fig7.csv":               "59c1ec6f8f1b963ae6d97fa96a37b5f3a2e67fd48068cdf7faf02fd11499f791",
	"fig/warm=true/figbaselines.csv":       "7ea35a159534cb523d26f1aceda829030082d4da5bc213d6de770465ddecda98",
	"fig/warm=true/figprofiles.csv":        "e0a989a10ea8f581b386c56d4d7a29c12cbddbd5632bfb5189bf3477c12004a3",
	"fig/warm=true/stdout":                 "7017a40889cc02acd87ac1cd4beed545b4749ded26e52f340ea6bc6dde48f8d0",
	"hetero/warm=false/hetero.csv":         "ddb03b7dc83124193bb3413e6ac108988839f376c9c8cd21fad685e68c3d8d71",
	"hetero/warm=false/stdout":             "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"hetero/warm=true/hetero.csv":          "ddb03b7dc83124193bb3413e6ac108988839f376c9c8cd21fad685e68c3d8d71",
	"hetero/warm=true/stdout":              "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/warm=false/multilevel.csv": "252d56ae3de798d8814369b4b8dde16c359cf6f35708ba61e3c78739a600e5a9",
	"multilevel/warm=false/stdout":         "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"multilevel/warm=true/multilevel.csv":  "89be0a50004a9fde6ac97724b47499d34d009da3e7038999f38114fa0762e0d4",
	"multilevel/warm=true/stdout":          "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/warm=false/robustness.csv": "2ce2562d846f265606a6d7812cc2032931f9cf027b927dd9eeea170ec2a289e0",
	"robustness/warm=false/stdout":         "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
	"robustness/warm=true/robustness.csv":  "b1db20f8a2d85e4e2ddc5c4de7e0fd8aecf23616719ed07ae66c08a51cfe9a00",
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
