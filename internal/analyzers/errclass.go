package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"amdahlyd/internal/analyzers/analysis"
)

// StatusClassifierFact marks an exported bool-returning function in one
// of the error-classification home packages that inspects 5xx statuses —
// the typed helpers (service.RetryableStatus and kin) that the rest of
// the repo must route through. The fact exists so diagnostics in other
// packages can name the helpers that should be called instead, without
// those packages hard-coding the list.
type StatusClassifierFact struct{}

// AFact marks StatusClassifierFact as a fact type.
func (*StatusClassifierFact) AFact() {}

// errClassHome reports whether a package is an error-classification
// home: transient-vs-permanent retry semantics live in internal/service
// (RetryableStatus, RetryAfter) and internal/fleet (hedged dispatch,
// failover), and nowhere else. The suffix form keeps fixtures and scratch modules
// honest under their own module paths.
func errClassHome(path string) bool {
	return strings.HasSuffix(path, "internal/service") || strings.HasSuffix(path, "internal/fleet")
}

// ErrClass enforces the PR-9 rule that transient-vs-permanent error
// classification happens through typed helpers in one place: a literal
// 5xx status comparison (`code == 503`, `resp.StatusCode >= 500`,
// `status == http.StatusServiceUnavailable`) outside internal/service
// and internal/fleet is a second copy of the retry policy waiting to
// drift from the first.
var ErrClass = &analysis.Analyzer{
	Name: "errclass",
	Doc: "flags literal 5xx HTTP status comparisons outside internal/service and internal/fleet; " +
		"retry/transient semantics stay in the typed classifiers",
	FactTypes: []analysis.Fact{(*StatusClassifierFact)(nil)},
	Run:       runErrClass,
}

func runErrClass(pass *analysis.Pass) error {
	home := errClassHome(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var comparisons []*ast.BinaryExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if ok && isStatusComparison(pass, be) {
					comparisons = append(comparisons, be)
				}
				return true
			})
			if len(comparisons) == 0 {
				continue
			}
			if home {
				exportClassifier(pass, fd)
				continue
			}
			for _, be := range comparisons {
				pass.Reportf(be.OpPos,
					"literal HTTP status comparison outside internal/service and internal/fleet "+
						"fragments retry semantics; %s", classifierHint(pass))
			}
		}
	}
	return nil
}

// isStatusComparison recognizes a comparison against 5xx status
// material: one operand is an integer constant in [500, 599] that is
// either a net/http Status* constant or sits opposite an operand whose
// name mentions a status or code.
func isStatusComparison(pass *analysis.Pass, be *ast.BinaryExpr) bool {
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return false
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		c, other := pair[0], pair[1]
		tv, ok := pass.TypesInfo.Types[c]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		v, ok := constant.Int64Val(tv.Value)
		if !ok || v < 500 || v > 599 {
			continue
		}
		if isHTTPStatusConst(pass, c) || mentionsStatusName(other) {
			return true
		}
	}
	return false
}

// isHTTPStatusConst reports whether expr resolves to a net/http Status*
// constant.
func isHTTPStatusConst(pass *analysis.Pass, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == "net/http" &&
		strings.HasPrefix(c.Name(), "Status")
}

// mentionsStatusName reports whether the expression's identifiers look
// like HTTP status material (status, code).
func mentionsStatusName(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		name := strings.ToLower(id.Name)
		if strings.Contains(name, "status") || strings.Contains(name, "code") {
			found = true
		}
		return !found
	})
	return found
}

// exportClassifier publishes the fact for exported bool-returning
// helpers in a home package.
func exportClassifier(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 {
		return
	}
	if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return
	}
	pass.ExportObjectFact(obj, &StatusClassifierFact{})
}

// classifierHint names the known typed classifiers, discovered through
// facts so the list tracks the code.
func classifierHint(pass *analysis.Pass) string {
	refs := pass.AllObjectFacts((*StatusClassifierFact)(nil))
	if len(refs) == 0 {
		return "route the decision through internal/service's typed classifiers (service.RetryableStatus and kin)"
	}
	names := make([]string, 0, len(refs))
	for _, r := range refs {
		pkg := r.Pkg
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		names = append(names, pkg+"."+r.Object)
	}
	return "route the decision through " + strings.Join(names, ", ")
}
