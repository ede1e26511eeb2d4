package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// DepOnly marks a package analyzed only so its facts flow to the
	// packages that were actually requested; its diagnostics are
	// discarded by the driver.
	DepOnly bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` in dir over the given
// patterns and decodes the stream. -export makes the toolchain compile
// every package (through the build cache) and report the path of its
// export data, which is what the type-checker imports against — the
// same modular scheme `go vet` uses, with no dependency on x/tools.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the import-path → export-data resolver shared by
// every type-check in one load.
func exportLookup(pkgs []*listPkg) map[string]string {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// newImporter returns a shared gc-export-data importer over the lookup
// map. It caches, so the standard library is read at most once per load.
func newImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// typeCheck parses the named files of dir and type-checks them as one
// package.
func typeCheck(fset *token.FileSet, importPath, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// Load parses and type-checks every non-test package matching the
// patterns, resolved relative to dir (any directory inside the module).
// Test files are out of scope by design: the invariants amdahl-lint
// enforces are production-code routing rules, and tests legitimately
// write scratch files and poke hot paths directly.
//
// The returned slice preserves `go list -deps` order — dependencies
// before dependents — which is the order the facts layer requires:
// Run analyzes packages front to back, so by the time a package
// is inspected, every fact its dependencies export is already in the
// store. Non-standard dependencies outside the requested patterns are
// loaded too, marked DepOnly: they contribute facts but their
// diagnostics are discarded.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := exportLookup(listed)
	fset := token.NewFileSet()
	imp := newImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typeCheck(fset, p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = p.DepOnly
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses and type-checks one directory of Go files as a single
// package outside the module's package graph — the fixture loader for
// the analysistest harness (testdata/ is invisible to `go list ./...`).
// Imports, including module-internal ones like amdahlyd/internal/core,
// resolve through export data listed from moduleRoot.
func LoadDir(moduleRoot, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var fileNames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			fileNames = append(fileNames, e.Name())
		}
	}
	if len(fileNames) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(fileNames)

	// A cheap parse pass discovers the imports whose export data the
	// type-check will need.
	fset := token.NewFileSet()
	importSet := map[string]bool{}
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	var imports []string
	for path := range importSet {
		imports = append(imports, path)
	}
	sort.Strings(imports)

	exports := map[string]string{}
	if len(imports) > 0 {
		listed, err := goList(moduleRoot, imports)
		if err != nil {
			return nil, err
		}
		exports = exportLookup(listed)
	}
	fset = token.NewFileSet()
	imp := newImporter(fset, exports)
	return typeCheck(fset, "fixture/"+filepath.Base(dir), dir, fileNames, imp)
}
