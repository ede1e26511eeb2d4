// Command amdahl-trace generates, inspects and replays failure traces.
//
// Traces are CSV files of (time, kind, proc) rows in exposure time —
// the format a real machine log can be converted into — preceded by a
// "# horizon=" header that keeps the trace length across round trips.
// Synthetic traces use a platform's published rates (the distributional
// assumption of the paper's simulator; see DESIGN.md, substitutions);
// -dist generalizes the per-processor inter-arrival law to the Weibull,
// log-normal and Gamma renewal processes observed in real platform logs,
// calibrated to the platform MTBF.
//
// Usage:
//
//	amdahl-trace gen -platform hera -procs 512 -horizon 1e7 -out trace.csv
//	amdahl-trace gen -platform hera -dist weibull -shape 0.7 -out trace.csv
//	amdahl-trace stat -in trace.csv
//	amdahl-trace stat -in trace.csv -dist weibull -shape 0.7 -lambda 1.69e-8
//	amdahl-trace replay -in trace.csv -platform hera -scenario 1 -T 6240 -P 219
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amdahlyd/internal/atomicio"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "amdahl-trace: need a subcommand: gen, stat or replay")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "stat":
		err = runStat(os.Args[2:])
	case "replay":
		err = runReplay(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want gen, stat or replay)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amdahl-trace:", err)
		os.Exit(1)
	}
}

// checkShapeFlag enforces the -dist/-shape pairing: the exponential law
// has no shape parameter (a supplied one would silently misstate the
// sampled law), and every other law needs one explicitly.
func checkShapeFlag(dist string, shape float64) error {
	exponential := failures.IsExponentialName(dist)
	if exponential && shape != 0 {
		return fmt.Errorf("-shape has no effect with -dist exponential")
	}
	if !exponential && shape == 0 {
		return fmt.Errorf("-dist %s needs an explicit -shape", dist)
	}
	return nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("amdahl-trace gen", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "platform supplying λ_ind and f")
	procs := fs.Int("procs", 512, "number of processors")
	horizon := fs.Float64("horizon", 1e7, "trace length in exposure seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	dist := fs.String("dist", "exponential", "inter-arrival law: exponential, weibull, lognormal or gamma (MTBF-calibrated)")
	shape := fs.Float64("shape", 0, "distribution shape (Weibull/Gamma k, log-normal σ); required for non-exponential laws")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkShapeFlag(*dist, *shape); err != nil {
		return err
	}
	pl, err := platform.Lookup(*platName)
	if err != nil {
		return err
	}
	// ParseDistribution carries the exponential rate through verbatim, so
	// the default path stays bit-identical to the historical generator.
	d, err := failures.ParseDistribution(*dist, *shape, pl.LambdaInd)
	if err != nil {
		return err
	}
	tr, err := failures.GenerateTraceDist(d, pl.FailStopFraction, *procs, *horizon, rng.New(*seed))
	if err != nil {
		return err
	}
	if *out != "" {
		// Temp-and-rename: a kill mid-write leaves the previous trace
		// intact instead of a truncated CSV a later run would trust.
		if err := atomicio.WriteFile(*out, func(w io.Writer) error {
			return tr.WriteCSV(w)
		}); err != nil {
			return err
		}
	} else if err := tr.WriteCSV(os.Stdout); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d events (%d fail-stop, %d silent) over %.3g s on %d procs\n",
		len(tr.Events), tr.Count(failures.FailStop), tr.Count(failures.Silent),
		*horizon, *procs)
	return nil
}

func runStat(args []string) error {
	fs := flag.NewFlagSet("amdahl-trace stat", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV path (required)")
	rate := fs.Float64("rate", 0, "expected platform rate P·λ_ind for a merged-stream KS test (exponential traces only)")
	dist := fs.String("dist", "", "per-processor law for a goodness-of-fit KS test (weibull, lognormal, gamma, exponential)")
	shape := fs.Float64("shape", 0, "shape for -dist (Weibull/Gamma k, log-normal σ); required for non-exponential laws")
	lambda := fs.Float64("lambda", 0, "per-processor rate λ_ind for -dist (required with -dist)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dist != "" {
		if err := checkShapeFlag(*dist, *shape); err != nil {
			return err
		}
		if !(*lambda > 0) {
			// Fail fast, before any statistics are printed: a script
			// capturing stdout must not see partial output on error.
			return fmt.Errorf("-dist needs -lambda (per-processor rate)")
		}
	} else if *shape != 0 || *lambda != 0 {
		// A forgotten -dist must not silently skip the KS test the user
		// asked for with the other flags.
		return fmt.Errorf("-shape/-lambda need -dist")
	}
	if *in == "" {
		return fmt.Errorf("need -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := failures.ReadCSV(f)
	if err != nil {
		return err
	}
	inter := tr.InterArrivals()
	fmt.Printf("events: %d total, %d fail-stop, %d silent\n",
		len(tr.Events), tr.Count(failures.FailStop), tr.Count(failures.Silent))
	if len(inter) == 0 {
		return nil
	}
	var acc stats.Welford
	for _, x := range inter {
		acc.Add(x)
	}
	fmt.Printf("inter-arrival: mean %.6g s (observed rate %.6g /s), min %.3g, max %.3g\n",
		acc.Mean(), 1/acc.Mean(), acc.Min(), acc.Max())
	if *rate > 0 {
		res, err := stats.KSTestExponential(inter, *rate)
		if err != nil {
			return err
		}
		verdict := "consistent with"
		if res.Reject(0.01) {
			verdict = "REJECTED against"
		}
		fmt.Printf("KS test: D=%.4g, p=%.4g — %s Exp(%g)\n",
			res.Statistic, res.PValue, verdict, *rate)
	}
	if *dist != "" {
		d, err := failures.ParseDistribution(*dist, *shape, *lambda)
		if err != nil {
			return err
		}
		// Per-processor gaps are iid draws of the law for any renewal
		// trace; the merged stream only is in the exponential case.
		res, err := stats.KSTest(tr.ProcInterArrivals(), d.CDF)
		if err != nil {
			return err
		}
		verdict := "consistent with"
		if res.Reject(0.01) {
			verdict = "REJECTED against"
		}
		fmt.Printf("KS test (per-proc): D=%.4g, p=%.4g — %s %s\n",
			res.Statistic, res.PValue, verdict, d.Name())
	}
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("amdahl-trace replay", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV path (required)")
	platName := fs.String("platform", "hera", "platform (resilience costs)")
	scenario := fs.Int("scenario", 1, "resilience scenario 1-6")
	alpha := fs.Float64("alpha", experiments.DefaultAlpha, "sequential fraction α")
	downtime := fs.Float64("downtime", experiments.DefaultDowntime, "downtime D (s)")
	period := fs.Float64("T", 0, "checkpointing period; 0 uses the Theorem 1 optimum")
	procs := fs.Float64("P", 0, "processor count; 0 uses the platform's deployed count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("need -in")
	}
	m, pl, err := experiments.ResolveModel(*platName, *scenario, *alpha, *downtime, 0)
	if err != nil {
		return err
	}
	t, p := experiments.ResolvePattern(m, pl, *period, *procs)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := failures.ReadCSV(f)
	if err != nil {
		return err
	}
	res, err := sim.SimulateReplay(m, t, p, tr)
	if err != nil {
		return err
	}
	if res.Patterns == 0 {
		// A mean over no pattern is NaN, not a measurement.
		return fmt.Errorf("the trace completed no pattern: its horizon is %.6g s, and a pattern needs at least T+V+C = %.6g s of exposure",
			tr.Horizon, t+m.Res.Verification.At(p)+m.Res.Checkpoint.At(p))
	}
	fmt.Printf("replayed %d patterns (T=%.4g s, P=%.4g) against %d trace events\n",
		res.Patterns, t, p, len(tr.Events))
	fmt.Printf("mean pattern time : %.6g s (exact formula %.6g s)\n",
		res.MeanPatternTime(), m.ExactPatternTime(t, p))
	fmt.Printf("execution overhead: %.6g (exact formula %.6g)\n",
		res.Overhead(t, m.Profile.Overhead(p)), m.Overhead(t, p))
	fmt.Printf("events applied    : %d fail-stop, %d silent detections, %d recoveries\n",
		res.FailStops, res.SilentDetections, res.Recoveries)
	return nil
}
