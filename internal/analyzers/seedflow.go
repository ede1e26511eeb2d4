package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"amdahlyd/internal/analyzers/analysis"
)

// SeedParamFact marks a function one of whose integer parameters is
// passed (possibly through further fact-carrying callees) into an rng
// seed position. Callers of such a function are then checked at the
// recorded argument positions — across package boundaries, which is the
// whole point: campaign seeds are derived in the planner and consumed by
// the executor, and sim.RunConfig seeds originate in the service layer.
type SeedParamFact struct {
	// Params holds the zero-based indices of the seed parameters,
	// sorted.
	Params []int
}

// AFact marks SeedParamFact as a fact type.
func (*SeedParamFact) AFact() {}

// SeedDerivedFact marks a function whose every return value is built
// from canonical seed material only (FNV folds, rng draws, constants,
// parameter arithmetic) — calling it inside a seed position is sound.
// experiments.cellSeed (an rng.HashLabel fold of the cell label) earns
// this fact.
type SeedDerivedFact struct{}

// AFact marks SeedDerivedFact as a fact type.
func (*SeedDerivedFact) AFact() {}

// SeedFlow enforces the seed-derivation contract behind bit-identical
// reproduction: every rng seed is derived from canonical material — an
// rng.Split/SplitString stream, FNV label-hash material, or the
// flag-declared master seed — never from wall-clock readings, PIDs, or
// other ambient state. Seed positions are discovered interprocedurally:
// rng.New's argument is the root, and a function forwarding its own
// int64/uint64 parameter into a seed position exports a SeedParamFact so
// its callers are checked too, in whatever package they live.
var SeedFlow = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "flags seed material not derived from rng.Split, FNV label-hash material, or the " +
		"flag-declared master seed; seed positions propagate to callers via facts",
	FactTypes: []analysis.Fact{(*SeedParamFact)(nil), (*SeedDerivedFact)(nil)},
	Run:       runSeedFlow,
}

// isRngPath matches the repo's deterministic-randomness package. The
// suffix form keeps the analyzer honest in fixtures and in the
// self-check's scratch modules, whose rng lives under their own module
// path.
func isRngPath(path string) bool {
	return path == rngPath || strings.HasSuffix(path, "/internal/rng")
}

// canonicalCallPkgs are packages whose functions are canonical seed
// material wherever they appear inside a seed expression: the rng
// streams themselves, FNV and the other stdlib hashes, and the flag
// package (the master seed is flag-declared by contract).
func canonicalSeedCall(path string) bool {
	return isRngPath(path) || path == "hash" || strings.HasPrefix(path, "hash/") || path == "flag"
}

func runSeedFlow(pass *analysis.Pass) error {
	funcs := collectFuncs(pass)

	// Fact fixpoint within the package: seed positions feed on facts
	// (a call to a fact-carrying function is itself a sink), so iterate
	// until no new fact appears. Cross-package facts are already in the
	// store — packages are analyzed in dependency order.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if updateSeedParamFact(pass, fn) {
				changed = true
			}
			if updateSeedDerivedFact(pass, fn) {
				changed = true
			}
		}
	}

	// Reporting pass: every expression in a seed position must be
	// canonical.
	for _, fn := range funcs {
		for _, sink := range seedPositions(pass, fn.decl.Body) {
			for _, offender := range offendingCalls(pass, sink.expr) {
				pass.Reportf(offender.Pos(),
					"%s in %s is not canonical seed material; derive seeds only from rng.Split "+
						"streams, FNV label-hash material, or the flag-declared master seed",
					calleeDisplay(pass, offender), sink.describe)
			}
		}
	}
	return nil
}

// funcInfo pairs a declaration with its types.Func object.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

func collectFuncs(pass *analysis.Pass) []*funcInfo {
	var out []*funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, &funcInfo{decl: fd, obj: obj})
		}
	}
	return out
}

// seedSink is one seed position: an expression that becomes an rng seed.
type seedSink struct {
	expr     ast.Expr
	describe string
}

// seedPositions finds every expression in body that flows into a seed:
// rng.New arguments, arguments at SeedParamFact positions of any callee,
// and values bound to a struct field named Seed (composite literal or
// assignment) — the shape sim.RunConfig and campaign cells use to carry
// seeds between layers.
func seedPositions(pass *analysis.Pass, body *ast.BlockStmt) []seedSink {
	var sinks []seedSink
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if isRngPath(fn.Pkg().Path()) && fn.Name() == "New" && len(s.Args) > 0 {
				sinks = append(sinks, seedSink{expr: s.Args[0], describe: "the seed argument of rng.New"})
				return true
			}
			var fact SeedParamFact
			if pass.ImportObjectFact(fn, &fact) {
				for _, idx := range fact.Params {
					if idx < len(s.Args) {
						sinks = append(sinks, seedSink{
							expr:     s.Args[idx],
							describe: "a seed argument of " + fn.Name(),
						})
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Seed" {
					sinks = append(sinks, seedSink{expr: kv.Value, describe: "a Seed field"})
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Seed" || i >= len(s.Rhs) {
					continue
				}
				sinks = append(sinks, seedSink{expr: s.Rhs[i], describe: "a Seed field"})
			}
		}
		return true
	})
	return sinks
}

// updateSeedParamFact records which of fn's own integer parameters reach
// a seed position, returning whether the fact changed.
func updateSeedParamFact(pass *analysis.Pass, fn *funcInfo) bool {
	params := seedableParams(pass, fn.decl)
	if len(params) == 0 {
		return false
	}
	indices := map[int]bool{}
	var prev SeedParamFact
	if pass.ImportObjectFact(fn.obj, &prev) {
		for _, i := range prev.Params {
			indices[i] = true
		}
	}
	before := len(indices)
	for _, sink := range seedPositions(pass, fn.decl.Body) {
		ast.Inspect(sink.expr, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if idx, ok := params[pass.TypesInfo.ObjectOf(id)]; ok {
				indices[idx] = true
			}
			return true
		})
	}
	if len(indices) == before {
		return false
	}
	fact := &SeedParamFact{Params: make([]int, 0, len(indices))}
	for i := range indices {
		fact.Params = append(fact.Params, i)
	}
	sort.Ints(fact.Params)
	pass.ExportObjectFact(fn.obj, fact)
	return true
}

// seedableParams maps fn's int64/uint64 parameter objects to their
// indices.
func seedableParams(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies an index
		}
		for i := 0; i < n; i++ {
			if i < len(field.Names) {
				obj := pass.TypesInfo.ObjectOf(field.Names[i])
				if obj != nil && isSeedInt(obj.Type()) {
					out[obj] = idx
				}
			}
			idx++
		}
	}
	return out
}

func isSeedInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Uint64)
}

// updateSeedDerivedFact blesses functions whose every return value is
// canonical integer material, returning whether the fact was newly
// exported.
func updateSeedDerivedFact(pass *analysis.Pass, fn *funcInfo) bool {
	var existing SeedDerivedFact
	if pass.ImportObjectFact(fn.obj, &existing) {
		return false
	}
	sig, _ := fn.obj.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if b, ok := sig.Results().At(i).Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			return false
		}
	}
	canonical := true
	sawReturn := false
	inspectSkippingFuncLits(fn.decl.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		sawReturn = true
		if len(ret.Results) == 0 {
			canonical = false // named results; too opaque to bless
			return
		}
		for _, res := range ret.Results {
			if len(offendingCalls(pass, res)) > 0 {
				canonical = false
			}
		}
	})
	if !sawReturn || !canonical {
		return false
	}
	pass.ExportObjectFact(fn.obj, &SeedDerivedFact{})
	return true
}

// inspectSkippingFuncLits visits nodes of body without descending into
// nested function literals (their returns are not the function's).
func inspectSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// offendingCalls returns every call inside expr that is not canonical
// seed material: not a conversion, not a builtin, not an rng/hash/flag
// call, and not blessed by a SeedDerivedFact.
func offendingCalls(pass *analysis.Pass, expr ast.Expr) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return true
			}
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			out = append(out, call)
			return false // the whole call tree is one piece of bad material
		}
		if fn.Pkg() == nil || canonicalSeedCall(fn.Pkg().Path()) {
			return true
		}
		var derived SeedDerivedFact
		if pass.ImportObjectFact(fn, &derived) {
			return true
		}
		out = append(out, call)
		return false // report the outermost non-canonical call once
	})
	return out
}

// calleeDisplay renders the callee of call for diagnostics.
func calleeDisplay(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "a function value call"
	}
	if fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name := recvNamed(sig); name != "" {
				return name + "." + fn.Name()
			}
		}
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
