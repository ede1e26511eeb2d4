package main

import (
	"fmt"
	"os"
	"path/filepath"

	"amdahlyd/internal/analyzers/analysis"
)

// emitDiagnostics renders diags and reports whether any were emitted.
// The default is the human text form ("file:line:col: message
// [analyzer]" on stderr); github selects workflow commands on stdout,
// which GitHub renders as inline PR annotations.
func emitDiagnostics(diags []analysis.Diagnostic, github bool) bool {
	for _, d := range diags {
		if github {
			// Workflow-command grammar: properties are comma-separated,
			// the message follows "::" with newlines %-escaped.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=amdahl-lint %s::%s\n",
				relPath(d.Position.Filename), d.Position.Line, d.Position.Column,
				d.Analyzer, escapeWorkflowData(d.Message))
		} else {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	return len(diags) > 0
}

// relPath rewrites an absolute position to be relative to the working
// directory when possible: GitHub annotations match files by
// workspace-relative path.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || rel == "" || rel[0] == '.' && len(rel) > 1 && rel[1] == '.' {
		return path
	}
	return rel
}

// escapeWorkflowData applies the %-escapes workflow command data needs
// so multi-line or %-bearing messages survive as one annotation.
func escapeWorkflowData(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			out = append(out, "%25"...)
		case '\r':
			out = append(out, "%0D"...)
		case '\n':
			out = append(out, "%0A"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
