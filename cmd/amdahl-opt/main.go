// Command amdahl-opt computes the optimal checkpointing pattern — period
// T* and processor allocation P* — for a platform, resilience scenario
// and application, using both the paper's first-order formulas (Theorems
// 2 and 3) and the numerical optimization of the exact overhead
// (Proposition 1), plus the Young/Daly and iterative-relaxation baselines.
//
// Usage:
//
//	amdahl-opt -platform hera -scenario 1 -alpha 0.1
//	amdahl-opt -platform atlas -scenario 3 -lambda 1e-10 -downtime 1800
package main

import (
	"flag"
	"fmt"
	"os"

	"amdahlyd/internal/baselines"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amdahl-opt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("amdahl-opt", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "platform name (hera, atlas, coastal, coastalssd)")
	scenario := fs.Int("scenario", 1, "resilience scenario 1-6 (Table III)")
	alpha := fs.Float64("alpha", experiments.DefaultAlpha, "sequential fraction α (0 selects perfectly parallel)")
	lambda := fs.Float64("lambda", 0, "override individual error rate λ_ind (1/s); 0 keeps the platform value")
	downtime := fs.Float64("downtime", experiments.DefaultDowntime, "downtime D after a fail-stop error (s)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, pl, err := experiments.ResolveModel(*platName, *scenario, *alpha, *downtime, *lambda)
	if err != nil {
		return err
	}
	sc := costmodel.Scenario(*scenario)

	fmt.Printf("Platform %s: λ_ind=%.3g /s (MTBF %.1f years), f=%.4f, s=%.4f\n",
		pl.Name, pl.LambdaInd, 1/pl.LambdaInd/(365.25*86400),
		pl.FailStopFraction, pl.SilentFraction)
	fmt.Printf("%v (%s), α=%g, D=%gs\n\n", sc, sc.Describe(), *alpha, *downtime)

	tb := report.NewTable("Optimal patterns",
		"method", "P*", "T* (s)", "predicted overhead", "note")

	if fo, err := m.FirstOrder(); err == nil {
		tb.AddRow("first-order (Thm 2/3)", report.Fmt(fo.P), report.Fmt(fo.T),
			report.Fmt(fo.Overhead), fo.Class.String())
	} else {
		tb.AddRow("first-order (Thm 2/3)", "-", "-", "-", err.Error())
	}

	num, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
	if err != nil {
		return err
	}
	note := ""
	if num.AtPBound {
		note = "at search bound (unbounded allocation)"
	}
	tb.AddRow("numerical (exact model)", report.Fmt(num.P), report.Fmt(num.T),
		report.Fmt(num.Overhead), note)

	if plan, err := baselines.PlanYoung(m, num.P); err == nil {
		tb.AddRow("Young period at P*", report.Fmt(num.P), report.Fmt(plan.T),
			report.Fmt(plan.TrueOverhead), "fail-stop-only period, true cost shown")
	}
	if sol, iters, err := baselines.IterativeRelaxation(m, 0, 0); err == nil {
		tb.AddRow("iterative relaxation [14]", report.Fmt(sol.P), report.Fmt(sol.T),
			report.Fmt(sol.Overhead), fmt.Sprintf("converged in %d iters", iters))
	}

	if err := tb.Render(os.Stdout); err != nil {
		return err
	}

	v := m.CheckValidity(num.T, num.P)
	fmt.Printf("\nfirst-order validity at the optimum: λ·(C+V)=%.3g, λ·T=%.3g, ok=%v\n",
		v.LambdaCV, v.LambdaT, v.OK)
	return nil
}
