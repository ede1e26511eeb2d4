// Package analysis is the minimal static-analysis framework behind
// amdahl-lint. It mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function that inspects one type-checked package
// through a Pass and reports Diagnostics — but is built entirely on the
// standard library (go/ast, go/types, go/importer), because this module
// deliberately carries no third-party dependencies.
//
// The deliberate API mirroring keeps a future migration to x/tools
// mechanical: an Analyzer here converts to an x/tools Analyzer by
// wrapping its Run, and the fixture harness in the sibling analysistest
// package speaks the same `// want "regexp"` dialect.
//
// Suppression: a diagnostic is suppressed by the directive
//
//	//lint:allow <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// immediately above it. The reason is mandatory — an allow without a
// justification, and an allow that suppresses nothing, are themselves
// diagnostics — so every exception to a repo invariant is written down
// next to the code that needs it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named invariant check. Run inspects a single
// package through the Pass and reports findings via Pass.Report; a
// returned error means the analyzer itself failed (not that the code is
// dirty) and aborts the whole run.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a single lowercase word.
	Name string
	// Doc is the one-paragraph description shown by `amdahl-lint help`.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
	// FactTypes declares, by prototype value, every Fact type this
	// analyzer exports or imports. An analyzer with a nil FactTypes is
	// purely local; one with facts participates in cross-package
	// propagation, in the dependency order Run analyzes packages in.
	FactTypes []Fact
}

// A Pass is one analyzer's view of one type-checked package. Beyond the
// syntax and types of the package itself, a Pass exposes the analyzer's
// facts: Import* reads facts exported by earlier passes over this
// package's dependencies, Export* publishes facts for passes over its
// dependents.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  factStore
}

// Report records a finding. The Analyzer field is filled in by the
// driver; Run functions only need Pos and Message.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	if !d.Position.IsValid() && d.Pos.IsValid() {
		d.Position = p.Fset.Position(d.Pos)
	}
	p.report(d)
}

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the diagnostic in the compiler's file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}
