// Command amdahl-lint is the repository's invariant checker: a
// multichecker over the nine analyzers in internal/analyzers, enforcing
// mechanically what earlier PRs enforced by reviewer memory (frozen-
// kernel routing, NaN-proof validation, atomic artifact writes,
// deterministic randomness, canonical cache-key tokens, sorted map
// output, wall-clock containment, seed provenance, centralized retry
// classification).
//
// It loads packages through `go list -export` and type-checks them
// against the toolchain's export data, analyzing in dependency order so
// facts-based analyzers (seedflow, errclass) see their dependencies'
// facts:
//
//	amdahl-lint ./...
//	amdahl-lint -run=nanguard,frozenloop amdahlyd/internal/sim
//	amdahl-lint -format=github ./...   # ::error annotations for Actions
//
// Source mode is the only driver: the tool does not speak go vet's
// external-tool protocol, because vet's build cache buys nothing here.
// On a 2-CPU host source mode analyzes ./... in 0.45 s; vet took 5.3 s
// cold and about 1 s warm, and would add its unit-config handshake to
// the `go list` dependency this mode already has.
//
// Exit status is 1 when any diagnostic survives //lint:allow
// suppression, 0 otherwise. Suppression syntax and the rule-to-analyzer
// map live in DESIGN.md ("Enforced invariants").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"amdahlyd/internal/analyzers"
	"amdahlyd/internal/analyzers/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amdahl-lint: ")

	listOnly := flag.Bool("list", false, "list analyzers and exit")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := flag.String("format", "", "diagnostic format: text (default) or github (workflow ::error annotations)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: amdahl-lint [-run=names] [-format=text|github] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	suite := selectAnalyzers(*runNames)
	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	switch *format {
	case "", "text", "github":
	default:
		log.Fatalf("unknown -format=%s (use text or github)", *format)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		log.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		log.Fatal(err)
	}
	if emitDiagnostics(diags, *format == "github") {
		os.Exit(1)
	}
}

func selectAnalyzers(names string) []*analysis.Analyzer {
	all := analyzers.All()
	if names == "" {
		return all
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		log.Fatalf("unknown analyzer %q (run amdahl-lint -list)", n)
	}
	return out
}
