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
// replaced by OUT) and of every file written. Refactors of the drivers,
// the renderers or the seed derivation must leave every digest
// unchanged.
var goldenDigests = map[string]string{
	"campaign/hetero/report.csv":      "79b0ec88531f8d1a13c6cabb1af4656dbeecaef3b7b0d8a024c310f116a43a20",
	"campaign/hetero/report.txt":      "bdd48296022640efd5f0d6c62330fac67dd1bbc572f6e8f7076db9190218d9d2",
	"campaign/multilevel/report.csv":  "5af1d4cc5ab4ff4e8dc85616bbb8ed80cbffb2f9d61fe2be18b70bc7a0cad661",
	"campaign/multilevel/report.txt":  "260fa56537abf5eda3ca48f4534b53472d3d077355ab057ccee954fed92c25d8",
	"campaign/robustness/report.csv":  "8bf6a23eff8319dde80200da170265b8ba02b4bb63f31c29d8706e069f5fb592",
	"campaign/robustness/report.txt":  "8dee502acd48358afdcd14baed89631c6cdeb76f6875f232cd5c0879eff4f797",
	"campaign/smoke/report.csv":       "720dfa94c9d44d6cd17af317327bb169d9bed4c276bbcc5ae41a7b135249f9fd",
	"campaign/smoke/report.txt":       "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv": "e5dbe238d7e375a94ea26d62643bbc79613f96a04c04cc3e75c63dafd8836326",
	"campaign/sweep-alpha/report.txt": "ce732c7c28466d9493cb97b08d50c437d431fb928ff8e06dbc4d5ec2219f9568",
	"fig/fig2.csv":                    "0d68dff243118a35d98e737c0f96ec8156e6173649d836dd5b45ef57f4220835",
	"fig/fig3.csv":                    "b74912e20c01c775513d29d6a699c1e913a9dba1fc324c0728610366f9933e38",
	"fig/fig4.csv":                    "8552c45a4e67d16d3333117945d95fae30152fbad99bd98e7d330c8cfd9ac22c",
	"fig/fig5.csv":                    "2f56b633ca08d7b5b0cb111c42a75a677f321f5b7aeaad0f46b9036f981cb269",
	"fig/fig6.csv":                    "5b0052a41face10e18e60b827c952829cc31e47ba3b2903e16b9db3aeb8cd4c9",
	"fig/fig7.csv":                    "1a5ffd238ff2d3c9c4e7cd6a8bbf57d082655d66f9b6842211712b2906fb23f7",
	"fig/figbaselines.csv":            "8e0f57dcbc2f1a034c494c06a7f5778b4cdf856353e70cce3549a9b46cec108f",
	"fig/figprofiles.csv":             "47c06e4f70fc89d8176f2c591d95ad137fd70800792fcfe0b1892f673145bd3b",
	"fig/stdout":                      "29e409f03d712e5920b2de6d75efa7c896fdc7739461c4d81a2529eaecebcd12",
	"hetero/hetero.csv":               "c3ff50638326dba0d743f39d49aa86d4447953def5f9df2590e3e4f6357a2e8b",
	"hetero/stdout":                   "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/multilevel.csv":       "004901ce001e2e38eee39fca195ac0aba9b49747c1d3da88cbe1baf367b3eb24",
	"multilevel/stdout":               "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/robustness.csv":       "bbc11430ab2f21e0c5e89e9bbc1d1a92b49d3132ce8f3fe7457f09a67e97a624",
	"robustness/stdout":               "b2ba0305deec5a9f3544f025836d239dbc76e00fe0dbde4d26feb6b703689540",
}

// TestGoldenRenders runs the figure suite, the three study subcommands
// and five campaign presets through the CLI entry points and compares
// each output's digest with goldenDigests. A mismatch logs every
// observed digest as a map literal.
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
	for _, d := range drivers {
		dir := t.TempDir()
		args := append([]string{"-quick", "-seed", "3", "-out", dir}, d.args...)
		out, err := capture(t, func() error { return d.run(ctx, args) })
		if err != nil {
			t.Fatalf("%s %v: %v", d.name, args, err)
		}
		prefix := d.name + "/"
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
