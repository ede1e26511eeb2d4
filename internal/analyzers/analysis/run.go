package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// DirectivePrefix is the comment prefix of a suppression directive.
const DirectivePrefix = "//lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
	bad      string // non-empty when the directive itself is malformed
}

// parseDirectives scans the comments of every file in the package.
func parseDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				d := &directive{pos: pkg.Fset.Position(c.Pos())}
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // some other //lint:allowX token, not ours
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.bad = "missing analyzer name and reason"
				case len(fields) == 1:
					d.analyzer = fields[0]
					d.bad = "missing reason: write //lint:allow " + fields[0] + " <why this exception is sound>"
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppresses reports whether d covers a diagnostic at pos: same file,
// and either the same line (end-of-line directive) or the line directly
// above (directive on its own line).
func (d *directive) suppresses(a string, pos token.Position) bool {
	return d.analyzer == a &&
		d.pos.Filename == pos.Filename &&
		(d.pos.Line == pos.Line || d.pos.Line == pos.Line-1)
}

// Run executes every analyzer over every package, applies //lint:allow
// suppression, and returns the surviving diagnostics sorted by position.
// pkgs must be in dependency order (as Load returns them): one fact
// store is threaded through the packages front to back, so a pass sees
// every fact its dependencies exported. Packages marked DepOnly are
// analyzed for their facts only; their diagnostics and directives are
// discarded. Malformed directives and directives that suppressed nothing
// are reported as diagnostics from the pseudo-analyzer "lintdirective",
// so a stale exception cannot quietly outlive the code it excused.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	facts := factStore{}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
			}
			pass.report = func(d Diagnostic) { raw = append(raw, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
		if pkg.DepOnly {
			continue
		}
		dirs := parseDirectives(pkg)
		for _, d := range raw {
			suppressed := false
			for _, dir := range dirs {
				if dir.bad == "" && dir.suppresses(d.Analyzer, d.Position) {
					dir.used = true
					suppressed = true
				}
			}
			if !suppressed {
				out = append(out, d)
			}
		}
		for _, dir := range dirs {
			switch {
			case dir.bad != "":
				out = append(out, Diagnostic{
					Analyzer: "lintdirective",
					Position: dir.pos,
					Message:  dir.bad,
				})
			case !known[dir.analyzer]:
				// An allow for an analyzer that did not run this pass is
				// not an error — partial runs (amdahl-lint -run=...) must
				// not invalidate directives aimed at the full suite.
			case !dir.used:
				out = append(out, Diagnostic{
					Analyzer: "lintdirective",
					Position: dir.pos,
					Message: fmt.Sprintf(
						"//lint:allow %s suppresses nothing on this or the next line; delete the stale directive",
						dir.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
