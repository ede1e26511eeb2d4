// Command amdahl-sim prices a concrete pattern PATTERN(T, P) by
// Monte-Carlo simulation of the VC protocol and compares the result with
// the exact analytical prediction of Proposition 1.
//
// Usage:
//
//	amdahl-sim -platform hera -scenario 1 -T 6240 -P 219
//	amdahl-sim -platform hera -scenario 3 -T 9000 -P 258 -machine -runs 100
package main

import (
	"flag"
	"fmt"
	"os"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/report"
	"amdahlyd/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amdahl-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("amdahl-sim", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "platform name")
	scenario := fs.Int("scenario", 1, "resilience scenario 1-6")
	alpha := fs.Float64("alpha", experiments.DefaultAlpha, "sequential fraction α")
	downtime := fs.Float64("downtime", experiments.DefaultDowntime, "downtime D (s)")
	period := fs.Float64("T", 0, "checkpointing period (s); 0 uses the Theorem 1 optimum")
	procs := fs.Float64("P", 0, "processor count; 0 uses the platform's deployed count")
	runs := fs.Int("runs", 500, "Monte-Carlo runs")
	patterns := fs.Int("patterns", 500, "patterns per run")
	seed := fs.Uint64("seed", 1, "random seed")
	machine := fs.Bool("machine", false, "use the machine-level event simulator (slower, per-processor failures)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail before the header prints, and print the budget that runs: 0
	// keeps the simulator's 500 default, as amdahl-exp's -runs does.
	if *runs < 0 {
		return fmt.Errorf("-runs %d is negative (0 keeps the default)", *runs)
	}
	if *patterns < 0 {
		return fmt.Errorf("-patterns %d is negative (0 keeps the default)", *patterns)
	}
	m, pl, err := experiments.ResolveModel(*platName, *scenario, *alpha, *downtime, 0)
	if err != nil {
		return err
	}
	sc := costmodel.Scenario(*scenario)
	t, p := experiments.ResolvePattern(m, pl, *period, *procs)

	cfg := sim.RunConfig{Runs: *runs, Patterns: *patterns, Seed: *seed, Machine: *machine}.WithDefaults()

	fmt.Printf("Simulating PATTERN(T=%.4g s, P=%.4g) on %s, %v, α=%g, D=%gs\n",
		t, p, pl.Name, sc, *alpha, *downtime)
	fmt.Printf("  %d runs × %d patterns, seed %d, simulator: %s\n\n",
		cfg.Runs, cfg.Patterns, *seed, map[bool]string{false: "pattern-level", true: "machine-level"}[*machine])

	res, err := sim.Simulate(m, t, p, cfg)
	if err != nil {
		return err
	}

	// CI95 goes through report.Fmt: a single-run campaign has no interval
	// (NaN) and must read "-", not "NaN".
	exactE := m.ExactPatternTime(t, p)
	fmt.Printf("mean pattern time : %.6g s ± %s (CI95), exact formula %.6g s\n",
		res.MeanPatternTime.Mean, report.Fmt(res.MeanPatternTime.CI95), exactE)
	fmt.Printf("execution overhead: %.6g ± %s (CI95), exact formula %.6g\n",
		res.Overhead.Mean, report.Fmt(res.Overhead.CI95), m.Overhead(t, p))
	fmt.Printf("events            : %d fail-stop, %d silent detections, %d recoveries\n",
		res.FailStops, res.SilentDetections, res.Recoveries)
	return nil
}
