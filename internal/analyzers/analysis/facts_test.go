package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// markFact marks exported functions whose name starts with "Seed".
type markFact struct{ Tag string }

func (*markFact) AFact() {}

// checkSrc type-checks src as one package, resolving imports against
// deps (source-checked packages from the same test).
func checkSrc(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*Package) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if d, ok := deps[p]; ok {
			return d.Types, nil
		}
		t.Fatalf("unexpected import %q", p)
		return nil, nil
	})
	info := newTypesInfo()
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// factAnalyzer exports a markFact for every function whose name begins
// with Seed, and reports every call to a function carrying the fact.
var factAnalyzer = &Analyzer{
	Name:      "marktest",
	Doc:       "test analyzer: facts flow across package boundaries",
	FactTypes: []Fact{(*markFact)(nil)},
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !strings.HasPrefix(fd.Name.Name, "Seed") {
					continue
				}
				obj := pass.TypesInfo.Defs[fd.Name]
				pass.ExportObjectFact(obj, &markFact{Tag: "from " + pass.Pkg.Path()})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var obj types.Object
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					obj = pass.TypesInfo.Uses[fun]
				case *ast.SelectorExpr:
					obj = pass.TypesInfo.Uses[fun.Sel]
				}
				fn, ok := obj.(*types.Func)
				if !ok {
					return true
				}
				var mark markFact
				if pass.ImportObjectFact(fn, &mark) {
					pass.Reportf(call.Pos(), "call to marked function %s (%s)", fn.Name(), mark.Tag)
				}
				return true
			})
		}
		return nil
	},
}

const libSrc = `package lib

func SeedStream(seed uint64) uint64 { return seed * 3 }
`

const appSrc = `package app

import "lib"

func Use() uint64 { return lib.SeedStream(7) }
`

// TestObjectFactsFlowAcrossPackages: in one Run over [lib, app] in
// dependency order, the fact exported while analyzing lib is visible
// while analyzing app.
func TestObjectFactsFlowAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	lib := checkSrc(t, fset, "lib", libSrc, nil)
	lib.DepOnly = true
	app := checkSrc(t, fset, "app", appSrc, map[string]*Package{"lib": lib})

	diags, err := Run([]*Package{lib, app}, []*Analyzer{factAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "SeedStream (from lib)") {
		t.Fatalf("want one cross-package diagnostic naming SeedStream, got %v", diags)
	}
}
