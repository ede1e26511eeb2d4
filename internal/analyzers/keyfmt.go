package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"amdahlyd/internal/analyzers/analysis"
)

// KeyFmt guards the cache-key canonicalization contract (DESIGN.md,
// "Service layer"): every float64 that enters a cache key is encoded
// with the exact shortest-hex token of core.FormatFloatKey (strconv
// FormatFloat 'x'), so two parameters share a token iff they are the
// same bit pattern. fmt's %v/%g/%f (and decimal strconv.FormatFloat
// modes) are not that token: precision-limited verbs collapse distinct
// values into one key (cache poisoning across models), and even the
// round-tripping forms fork the key space from every existing m1|/ml1|/
// hg1| entry. The analyzer scans functions whose name contains "key" —
// the repo convention for key builders (CacheKey, AppendCacheKey,
// appendOptionsKey, ...) — and flags float-typed arguments reaching fmt
// verbs, fmt.Sprint concatenation, or non-'x' strconv.FormatFloat and
// strconv.AppendFloat calls (the latter is how the append-form builders
// spell the token, via xmath.AppendFloatKey).
var KeyFmt = &analysis.Analyzer{
	Name: "keyfmt",
	Doc: "flags %v/%g/%f formatting of floats inside cache-key construction " +
		"(functions named *key*); keys use the exact-hex core.FormatFloatKey token",
	Run: runKeyFmt,
}

func runKeyFmt(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.Contains(strings.ToLower(fd.Name.Name), "key") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkKeyCall(pass, call)
				}
				return true
			})
		}
	}
	return nil
}

func checkKeyCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Sprintf", "Fprintf", "Appendf", "Errorf":
			fmtIdx := 0
			if fn.Name() == "Fprintf" || fn.Name() == "Appendf" {
				fmtIdx = 1
			}
			if fn.Name() == "Errorf" {
				return // error text, not a key token
			}
			checkFormatCall(pass, call, fmtIdx)
		case "Sprint", "Sprintln", "Append", "Appendln":
			for _, arg := range call.Args {
				if isFloatExpr(pass, arg) {
					pass.Reportf(arg.Pos(),
						"float %s enters a cache key through fmt.%s (%%v semantics); "+
							"use core.FormatFloatKey for the exact-hex key token",
						types.ExprString(arg), fn.Name())
				}
			}
		}
	case "strconv":
		// The format byte: FormatFloat(f, fmt, prec, bitSize) and
		// AppendFloat(dst, f, fmt, prec, bitSize).
		fmtIdx := -1
		switch {
		case fn.Name() == "FormatFloat" && len(call.Args) == 4:
			fmtIdx = 1
		case fn.Name() == "AppendFloat" && len(call.Args) == 5:
			fmtIdx = 2
		}
		if fmtIdx < 0 {
			return
		}
		if tv, ok := pass.TypesInfo.Types[call.Args[fmtIdx]]; ok && tv.Value != nil &&
			tv.Value.Kind() == constant.Int {
			if v, ok := constant.Int64Val(tv.Value); ok && v != 'x' && v != 'X' {
				pass.Reportf(call.Pos(),
					"strconv.%s(%q) inside a key builder is not the canonical token; "+
						"cache keys use the exact-hex 'x' encoding of core.FormatFloatKey",
					fn.Name(), rune(v))
			}
		}
	}
}

// checkFormatCall maps printf verbs to their arguments and flags every
// float argument consumed by a value-formatting verb. %x/%X on a float
// is fmt's hex-float form and is accepted — it is bit-exact, and it is
// how a hand-rolled key builder would spell the canonical token.
func checkFormatCall(pass *analysis.Pass, call *ast.CallExpr, fmtIdx int) {
	if len(call.Args) <= fmtIdx {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[fmtIdx]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	args := call.Args[fmtIdx+1:]

	argIdx := 0
	verbFor := map[int]rune{} // variadic arg index → verb consuming it
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		// flags, width, precision; '*' consumes an argument.
	spec:
		for ; i < len(runes); i++ {
			switch r := runes[i]; {
			case r == '%':
				break spec // literal %%
			case strings.ContainsRune("+-# 0.", r) || r >= '0' && r <= '9':
				// flag / width / precision digits
			case r == '*':
				argIdx++
			case r == '[':
				// Indexed verbs re-order arguments; precise mapping is
				// not worth it here — treat every float argument as
				// reachable by the remaining verbs.
				for _, arg := range args {
					if isFloatExpr(pass, arg) {
						reportKeyVerb(pass, arg, 'v')
					}
				}
				return
			default:
				verbFor[argIdx] = r
				argIdx++
				break spec
			}
		}
	}
	for idx, verb := range verbFor {
		if idx >= len(args) {
			continue
		}
		if strings.ContainsRune("vgGfFeE", verb) && isFloatExpr(pass, args[idx]) {
			reportKeyVerb(pass, args[idx], verb)
		}
	}
}

func reportKeyVerb(pass *analysis.Pass, arg ast.Expr, verb rune) {
	pass.Reportf(arg.Pos(),
		"float %s formatted with %%%c inside a key builder; cache keys use the "+
			"exact-hex token of core.FormatFloatKey (DESIGN.md canonicalization rules)",
		types.ExprString(arg), verb)
}

// isFloatExpr reports whether e's static type (or an untyped constant's
// default type) is floating-point.
func isFloatExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if basic, ok := t.(*types.Basic); ok && basic.Info()&types.IsUntyped != 0 {
		t = types.Default(t)
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
