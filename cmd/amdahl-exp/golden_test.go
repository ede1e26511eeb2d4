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
	"campaign/robustness/report.csv":  "916e8f6a312c6d2e77406ebc27e8045c269e9bdae62254ad41c64c242e6d794a",
	"campaign/robustness/report.txt":  "8dee502acd48358afdcd14baed89631c6cdeb76f6875f232cd5c0879eff4f797",
	"campaign/smoke/report.csv":       "85246cab4f73e4a0f5e9690d13c0aab557ae4ff0d17d91e9297afdeb5ba29186",
	"campaign/smoke/report.txt":       "3d4e054fab316b9c1cf098d73fd8f44ca4b88b9de401cef19393e6106877406c",
	"campaign/sweep-alpha/report.csv": "3b696b023b602d1905e91353faedf1364d28ed88fd3a4b410b455116a0e44600",
	"campaign/sweep-alpha/report.txt": "d3da0d3907bbd78d2ebc4869703e2f916487433199f853c24eb1d8c8167b4d39",
	"fig/fig2.csv":                    "9c41cc02da2d37a9d8dc3d95918282b18d496bb917bcf785a48013ffe51b7c63",
	"fig/fig3.csv":                    "b74912e20c01c775513d29d6a699c1e913a9dba1fc324c0728610366f9933e38",
	"fig/fig4.csv":                    "f06aee73a8f8e90e6d6e44c3498c4195dd8752bc93ca9670a3c0f8613c03dc44",
	"fig/fig5.csv":                    "5ccb8de89579d233b5bb79791ac593d9e2ca16ef6fb352f017ab080e48bebdd2",
	"fig/fig6.csv":                    "645c5da1b530d2cdbba08040560565d1c3ccc5180545fda5f15298fc8f487078",
	"fig/fig7.csv":                    "897890aa6aaf32d5eb369e9e163b77dc074a9e51b065feb0f91b2e41015b3f68",
	"fig/figbaselines.csv":            "e48d4b8f18b1ca602c00fc6777ea479af4e3be8194276b4de4da0a06c7faaf7a",
	"fig/figprofiles.csv":             "e907d0095c562227f867371e2b47cfa9400dd7b15ae4df2e31f4775bf36f9119",
	"fig/stdout":                      "b1df67ef2085bf18b2a6e410070c8d1f19824cc9452a3edd96cbc5faa89cb955",
	"hetero/hetero.csv":               "c3ff50638326dba0d743f39d49aa86d4447953def5f9df2590e3e4f6357a2e8b",
	"hetero/stdout":                   "2e8ba800e390ddef9508905cb7e60be29c0266ae03d1b11fc3aea2b712d881ee",
	"multilevel/multilevel.csv":       "ba995406e6b83719edd8607614d1669595243dd8aba339fd26b6928782d4f658",
	"multilevel/stdout":               "1520c4cf68d0f51b577e28114cc833355ca76d5872ee8d13c982a9c72cf112e1",
	"robustness/robustness.csv":       "0f6a21b5a6dba7a7d8a66c3fffe689fd0faeadd57dcc187a24301ccc99aa0937",
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
