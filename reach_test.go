package amdahlyd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions under internal/ that no binary
// links but that stay in production files, each with the test that
// relies on it. Keys are written the way TestInternalCodeIsReachable
// prints a finding: the package path below internal/, then the
// receiver type if any, then the name.
var reachAllowlist = map[string]string{
	// Fact marker methods: the type must satisfy analysis.Fact, but
	// nothing calls the method.
	"analyzers.SeedDerivedFact.AFact":      "analysis.Fact marker; TestSeedFlow exports and imports the fact",
	"analyzers.SeedParamFact.AFact":        "analysis.Fact marker; TestSeedFlow exports and imports the fact",
	"analyzers.StatusClassifierFact.AFact": "analysis.Fact marker; TestErrClass exports and imports the fact",

	// The analyzer fixture loader and the Table II rows beside the
	// linked Hera and Coastal.
	"analyzers/analysis.LoadDir": "the analysistest fixture loader behind TestSeedFlow and the other analyzer tests",
	"platform.Atlas":             "Table II row beside the linked Hera and Coastal; TestTable2Values",
	"platform.CoastalSSD":        "Table II row beside the linked Hera and Coastal; TestTable2Values",
	"platform.SingleGroup":       "the one-group topology TestSingleGroupDegeneracy holds the hetero layers to, and TestCPUOnlyBaselineIsTheDegenerateHeteroSolve the hetero study's CPU-only baseline",

	// Oracles that tests compare production code against.
	"core.Model.ErrorFreeOverhead":         "computed from CombinedVC, not Freeze: the oracle TestFrozenMatchesModel holds the Frozen method /v1/evaluate serves to",
	"core.DecreasingCostOverhead":          "Theorem 3 closed form; TestDecreasingCostOverheadMonotone",
	"core.MaxOrderDelta":                   "Theorem 2 closed form; TestMaxOrderDelta",
	"core.PerfectlyParallelOverhead":       "Theorem 2 closed form; TestPerfectlyParallelOverheadSubcases",
	"costmodel.Scenario.ExpectedClass":     "TestScenarioExpectedClassMatchesClassify checks the dispatch against it",
	"optimize.BrentMin":                    "textbook bounded Brent; FuzzOptimalPattern's dense reference and TestPeriodSearchMatchesDenseReference polish with it, and the scan's seeded polish runs its loop",
	"speedup.AmdahlComm.OptimalAllocation": "TestAmdahlCommShape checks the comm profile's optimum",
	"xmath.EqualWithin":                    "tolerance comparator of the numerical tests, TestFrozenMatchesModel among them",
	"xmath.RelDiff":                        "relative-error comparator of the warm-vs-cold tests, TestSweepWarmMatchesCold among them",

	// The chi-square oracle of TestTraceWindowCountsArePoisson, down to
	// the incomplete gamma function.
	"stats.ChiSquarePoisson":       "TestTraceWindowCountsArePoisson",
	"stats.ChiSquareGOF":           "TestTraceWindowCountsArePoisson, through ChiSquarePoisson",
	"stats.ChiSquareResult.Reject": "TestTraceWindowCountsArePoisson",
	"stats.mergeSparseBins":        "TestTraceWindowCountsArePoisson, through ChiSquareGOF",
	"xmath.ChiSquareCDF":           "TestTraceWindowCountsArePoisson, through ChiSquareGOF",
	"xmath.RegularizedGammaQ":      "TestTraceWindowCountsArePoisson, through ChiSquareCDF",

	// The bootstrap interval a performance comparison will use, and what
	// it needs.
	"stats.BootstrapCI": "TestBootstrapCI; kept for paired benchmark comparisons",
	"stats.Quantile":    "TestQuantile and BootstrapCI",
	"stats.Median":      "ExampleQuantile",
	"xmath.Sum.Add":     "TestNeumaierSumCancellation and BootstrapCI",
	"xmath.Sum.Value":   "TestNeumaierSumCancellation and BootstrapCI",
}

// TestInternalCodeIsReachable fails on production code that only tests
// call. It builds every binary of both modules — the CLIs, the examples
// and perfbench — and reads their symbol tables: every function or
// method declared in a non-test file under internal/ must be linked into
// at least one of them, or be on reachAllowlist with a reason. An entry
// that is linked again, or no longer declared, fails as stale.
//
// The linker's dead-code pass is the reachability analysis: it follows
// calls, method values and the interface method sets of types that are
// converted to interfaces, across both modules at once. The build turns
// inlining off for the repository's packages, so a function inlined at
// every call site keeps a symbol of its own.
func TestInternalCodeIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of both modules")
	}
	bin := t.TempDir()
	goBuild(t, ".", bin, "./cmd/...", "./examples/...")
	goBuild(t, "perfbench", bin, ".")
	linked := linkedFuncs(t, bin)
	declared := declaredFuncs(t, "internal")

	isDeclared := make(map[string]bool, len(declared))
	for _, name := range declared {
		isDeclared[name] = true
		if !linked[name] && reachAllowlist[name] == "" {
			t.Errorf("%s: declared under internal/ but linked into no binary; delete it, move it into a _test.go file, or add it to reachAllowlist with the test that needs it", name)
		}
	}
	for name, reason := range reachAllowlist {
		switch {
		case reason == "":
			t.Errorf("reachAllowlist[%q] has no reason", name)
		case !isDeclared[name]:
			t.Errorf("reachAllowlist[%q] is stale: no such function under internal/", name)
		case linked[name]:
			t.Errorf("reachAllowlist[%q] is stale: a binary links it now", name)
		}
	}
}

// goBuild builds the main packages matched by patterns in the module at
// dir into the directory out, with inlining off for this repository's
// packages.
func goBuild(t *testing.T, dir, out string, patterns ...string) {
	t.Helper()
	args := append([]string{"build", "-o", out + string(filepath.Separator), "-gcflags=amdahlyd/...=-l"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, b)
	}
}

// linkedFuncs returns the functions under amdahlyd/internal/ that any
// binary in dir links, named as declaredFuncs names them: "(*T).M"
// becomes "T.M" and generic shape brackets are dropped. Closures keep
// their ".funcN" suffix and so match no declaration.
func linkedFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "amdahlyd/internal/"
	unpointer := strings.NewReplacer("(*", "", ")", "")
	linked := make(map[string]bool)
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		out, err := exec.Command("go", "tool", "nm", path).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", path, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "  4a1b20 T amdahlyd/internal/sim.(*Machine).SimulateRun"; a shape
			// in brackets may contain spaces, so the name is the rest.
			fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
				continue
			}
			name, ok := strings.CutPrefix(fields[2], prefix)
			if !ok {
				continue
			}
			linked[unpointer.Replace(stripBrackets(name))] = true
		}
	}
	return linked
}

// stripBrackets removes every bracketed span, nested ones included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs lists, sorted, every function and method declared in a
// non-test file under root, named "pkg.F" or "pkg.T.M" with pkg the
// directory below root. It skips init functions, testdata and the
// test-support package analyzers/analysistest.
func declaredFuncs(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || path == filepath.Join(root, "analyzers", "analysistest") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = receiverType(fd.Recv.List[0].Type) + "." + name
			}
			names = append(names, pkg+"."+name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// receiverType returns the base type name of a receiver expression:
// T for T, *T, T[K] and *T[K, V].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return ""
		}
	}
}
