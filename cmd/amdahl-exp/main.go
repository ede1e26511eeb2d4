// Command amdahl-exp regenerates the paper's evaluation figures
// (Figs. 2–7 of Section IV) as text tables and CSV series, plus the
// extension studies.
//
// Usage:
//
//	amdahl-exp -fig 2                  # Fig. 2 on all four platforms
//	amdahl-exp -fig 5 -quick           # reduced Monte-Carlo budget
//	amdahl-exp -fig all -out results/  # everything, with CSV files
//	amdahl-exp -fig 4 -warm=false      # per-cell grid scans (no warm-start)
//
// Sweep cells are solved by a warm-start chain per scenario (see
// DESIGN.md, "Warm-start sweep solver"); -warm=false runs per-cell grid
// scans instead, bit-identical to per-cell OptimalPattern calls. Warm
// results agree with cold ones within the SweepSolver tolerance, so a
// render may differ in its last printed digit; byte-identical renders
// are pinned for Fig. 4 and for the two-level and hetero studies.
//
// The robustness subcommand stresses the exponential-optimal patterns
// against non-memoryless failure laws (Weibull, log-normal, Gamma),
// re-tuning the period under the true distribution and reporting the
// overhead gap per Table III scenario:
//
//	amdahl-exp robustness -dist weibull -shape 0.7
//	amdahl-exp robustness -dist weibull -quick   # sweep k in [0.5, 1]
//
// The multilevel subcommand runs the two-level resilience study: the
// joint (T, K, P) optimum per scenario × in-memory cost fraction, priced
// by Monte-Carlo against the single-level optimum (DESIGN.md,
// "Multilevel end-to-end"):
//
//	amdahl-exp multilevel -quick
//	amdahl-exp multilevel -scenario 3 -frac 0.0667,0.2
//
// The hetero subcommand runs the heterogeneous-platform study: a CPU
// platform plus a derived accelerator group (8× faster, 50× less
// reliable), jointly optimized over active groups, work split and
// per-group patterns, swept over the inter-group comm term and the
// accelerator size (DESIGN.md, "Heterogeneous topologies"):
//
//	amdahl-exp hetero -quick
//	amdahl-exp hetero -scenario 1 -comm 0,1e-5 -split 0.25
//
// The campaign subcommand is the crash-safe grid orchestrator: a
// declarative manifest (or a built-in preset mirroring the five studies)
// expands into a deterministic cell grid, every completed cell is banked
// as an atomic checksummed artifact, and -resume finishes an interrupted
// campaign — SIGKILL included — to the byte-identical aggregate report:
//
//	amdahl-exp campaign -preset smoke -out runs/smoke
//	amdahl-exp campaign -manifest grid.json -out runs/grid
//	amdahl-exp campaign -manifest grid.json -out runs/grid -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"amdahlyd/internal/atomicio"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
)

func main() {
	// An interrupt aborts in-flight Monte-Carlo campaigns via the context
	// threaded through the experiment drivers, instead of leaving a
	// full-budget figure suite running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "robustness":
		err = runRobustness(ctx, args[1:])
	case len(args) > 0 && args[0] == "multilevel":
		err = runMultilevel(ctx, args[1:])
	case len(args) > 0 && args[0] == "hetero":
		err = runHetero(ctx, args[1:])
	case len(args) > 0 && args[0] == "campaign":
		err = runCampaign(ctx, args[1:])
	default:
		err = run(ctx, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amdahl-exp:", err)
		os.Exit(1)
	}
}

// buildConfig assembles the Monte-Carlo budget shared by every
// subcommand: -quick selects the reduced preset, -runs/-patterns
// override either axis, and 0 keeps the preset's value.
func buildConfig(quick bool, seed uint64, runs, patterns int) (experiments.Config, error) {
	if runs < 0 {
		return experiments.Config{}, fmt.Errorf("-runs %d is negative (0 keeps the default)", runs)
	}
	if patterns < 0 {
		return experiments.Config{}, fmt.Errorf("-patterns %d is negative (0 keeps the default)", patterns)
	}
	cfg := experiments.Config{Seed: seed}
	if quick {
		cfg = experiments.Quick()
		cfg.Seed = seed
	}
	if runs > 0 {
		cfg.Runs = runs
	}
	if patterns > 0 {
		cfg.Patterns = patterns
	}
	return cfg, nil
}

// runRobustness drives the non-exponential robustness study (extension
// beyond the paper; see DESIGN.md, distribution substrate).
func runRobustness(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("amdahl-exp robustness", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "platform supplying rates and costs")
	dist := fs.String("dist", "weibull", "true failure law: weibull, lognormal or gamma (exponential = sanity baseline)")
	shape := fs.Float64("shape", 0, "distribution shape (Weibull/Gamma k, log-normal σ); 0 sweeps the default Weibull range [0.5, 1]")
	scenario := fs.Int("scenario", 0, "restrict to one Table III scenario 1-6 (0 = all)")
	quick := fs.Bool("quick", false, "reduced Monte-Carlo budget (~100× faster)")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 1, "random seed")
	runs := fs.Int("runs", 0, "override Monte-Carlo runs per point")
	patterns := fs.Int("patterns", 0, "override patterns per run")
	warm := fs.Bool("warm", true, "warm-start the per-scenario optimizations; -warm=false restores the per-cell grid scans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	pl, err := platform.Lookup(*platName)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*quick, *seed, *runs, *patterns)
	if err != nil {
		return err
	}
	cfg.ColdSolve = !*warm
	shapes := experiments.DefaultRobustnessShapes
	switch {
	case failures.IsExponentialName(*dist):
		// The exponential law has no shape parameter: a single cell per
		// scenario (sweeping the default range would price identical
		// cells six times over), and an explicit -shape would silently
		// misstate the law that was priced.
		if *shape != 0 {
			return fmt.Errorf("-shape has no effect with -dist exponential")
		}
		shapes = []float64{1}
	case *shape != 0:
		shapes = []float64{*shape}
	case *dist == "lognormal":
		// The default sweep is the Weibull/Gamma shape range, where
		// shape 1 is the memoryless baseline; LogNormal(σ=1) is not, so
		// a σ sweep must be an explicit choice.
		return fmt.Errorf("-dist lognormal needs an explicit -shape (σ)")
	}
	var scenarios []costmodel.Scenario
	if *scenario != 0 {
		sc := costmodel.Scenario(*scenario)
		if !sc.Valid() {
			return fmt.Errorf("scenario %d outside 1-6", *scenario)
		}
		scenarios = []costmodel.Scenario{sc}
	}
	res, err := experiments.RobustnessStudy(ctx, pl, *dist, shapes, scenarios, cfg)
	if err != nil {
		return err
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if *outDir != "" {
		return writeCSV(*outDir, "robustness", res)
	}
	return nil
}

// runMultilevel drives the two-level resilience study (extension beyond
// the paper, Section V future work; see DESIGN.md, "Multilevel
// end-to-end"): the joint (T, K, P) optimum per scenario × in-memory
// cost fraction, priced by Monte-Carlo against the single-level optimum.
func runMultilevel(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("amdahl-exp multilevel", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "platform supplying rates and costs")
	fracs := fs.String("frac", "", "comma-separated in-memory cost fractions C1/C2 (default 1/60,1/15,0.2,0.5,1)")
	scenario := fs.Int("scenario", 0, "restrict to one Table III scenario 1-6 (0 = scenarios 1,3,5)")
	quick := fs.Bool("quick", false, "reduced Monte-Carlo budget (~100× faster)")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 1, "random seed")
	runs := fs.Int("runs", 0, "override Monte-Carlo runs per point")
	patterns := fs.Int("patterns", 0, "override patterns per run")
	warm := fs.Bool("warm", true, "warm-start the per-scenario (T, K, P) chains; -warm=false restores per-cell full-box scans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	pl, err := platform.Lookup(*platName)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*quick, *seed, *runs, *patterns)
	if err != nil {
		return err
	}
	cfg.ColdSolve = !*warm
	fracList, err := parseFloats(*fracs)
	if err != nil {
		return fmt.Errorf("-frac: %w", err)
	}
	var scenarios []costmodel.Scenario
	if *scenario != 0 {
		sc := costmodel.Scenario(*scenario)
		if !sc.Valid() {
			return fmt.Errorf("scenario %d outside 1-6", *scenario)
		}
		scenarios = []costmodel.Scenario{sc}
	}
	res, err := experiments.MultilevelStudy(ctx, pl, fracList, scenarios, cfg)
	if err != nil {
		return err
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if *outDir != "" {
		return writeCSV(*outDir, "multilevel", res)
	}
	return nil
}

// runHetero drives the heterogeneous-platform study (extension beyond
// the paper; see DESIGN.md, "Heterogeneous topologies"): the joint
// optimum over active groups, work split and per-group patterns for a
// CPU platform plus a derived accelerator group, swept over the
// inter-group comm term and the accelerator size, priced by Monte-Carlo
// against the CPU-only optimum.
func runHetero(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("amdahl-exp hetero", flag.ContinueOnError)
	platName := fs.String("platform", "hera", "CPU platform supplying rates and costs (the accelerator group is derived from it)")
	comms := fs.String("comm", "", "comma-separated inter-group comm coefficients κ (default 0,1e-6,3e-6,1e-5,3e-5,1e-4)")
	splits := fs.String("split", "", "comma-separated accelerator sizes as fractions of the CPU size (default 0.0625,0.25,1)")
	scenario := fs.Int("scenario", 0, "restrict to one Table III scenario 1-6 (0 = scenarios 1,3,5)")
	quick := fs.Bool("quick", false, "reduced Monte-Carlo budget (~100× faster)")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 1, "random seed")
	runs := fs.Int("runs", 0, "override Monte-Carlo runs per point")
	patterns := fs.Int("patterns", 0, "override patterns per run")
	warm := fs.Bool("warm", true, "warm-start the per-(scenario, split) chains along the comm axis; -warm=false restores per-cell full-box scans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	pl, err := platform.Lookup(*platName)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*quick, *seed, *runs, *patterns)
	if err != nil {
		return err
	}
	cfg.ColdSolve = !*warm
	commList, err := parseFloats(*comms)
	if err != nil {
		return fmt.Errorf("-comm: %w", err)
	}
	splitList, err := parseFloats(*splits)
	if err != nil {
		return fmt.Errorf("-split: %w", err)
	}
	var scenarios []costmodel.Scenario
	if *scenario != 0 {
		sc := costmodel.Scenario(*scenario)
		if !sc.Valid() {
			return fmt.Errorf("scenario %d outside 1-6", *scenario)
		}
		scenarios = []costmodel.Scenario{sc}
	}
	res, err := experiments.HeterogeneousStudy(ctx, pl, commList, splitList, scenarios, cfg)
	if err != nil {
		return err
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if *outDir != "" {
		return writeCSV(*outDir, "hetero", res)
	}
	return nil
}

// parseFloats parses a comma-separated list of floats ("" = nil, which
// selects a study's default axis).
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// renderable is the common surface of every figure result.
type renderable interface {
	Render(w io.Writer) error
	WriteCSV(w io.Writer) error
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("amdahl-exp", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, 6, 7 or all")
	platName := fs.String("platform", "", "platform for Figs. 3-7 (default hera) or Fig. 2 (default all)")
	quick := fs.Bool("quick", false, "reduced Monte-Carlo budget (~100× faster)")
	outDir := fs.String("out", "", "directory for CSV output (optional)")
	seed := fs.Uint64("seed", 1, "random seed")
	runs := fs.Int("runs", 0, "override Monte-Carlo runs per point")
	patterns := fs.Int("patterns", 0, "override patterns per run")
	warm := fs.Bool("warm", true, "warm-start sweep cells from the neighbouring optimum; -warm=false restores the per-cell grid scans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// A misspelled subcommand ("robustnes") or a misplaced positional
		// must not silently launch the full-budget figure suite.
		return fmt.Errorf("unexpected argument %q (subcommands: robustness, multilevel, hetero, campaign)", fs.Arg(0))
	}

	cfg, err := buildConfig(*quick, *seed, *runs, *patterns)
	if err != nil {
		return err
	}
	cfg.ColdSolve = !*warm

	sweepPlatform := platform.Hera()
	fig2Platforms := platform.All()
	if *platName != "" {
		pl, err := platform.Lookup(*platName)
		if err != nil {
			return err
		}
		sweepPlatform = pl
		fig2Platforms = []platform.Platform{pl}
	}

	figures := map[string]func() (renderable, error){
		"2": func() (renderable, error) { return experiments.Fig2(ctx, fig2Platforms, cfg) },
		"3": func() (renderable, error) { return experiments.Fig3(ctx, sweepPlatform, nil, cfg) },
		"4": func() (renderable, error) { return experiments.Fig4(ctx, sweepPlatform, nil, cfg) },
		"5": func() (renderable, error) { return experiments.Fig5(ctx, sweepPlatform, nil, cfg) },
		"6": func() (renderable, error) { return experiments.Fig6(ctx, sweepPlatform, nil, cfg) },
		"7": func() (renderable, error) { return experiments.Fig7(ctx, sweepPlatform, nil, cfg) },
		// Extension beyond the paper: speedup profiles other than
		// Amdahl's law (Section V future work).
		"profiles": func() (renderable, error) {
			return experiments.ProfileStudy(ctx, sweepPlatform, costmodel.Scenario1, nil, cfg)
		},
		// The intro's motivation quantified: fail-stop-only Young/Daly
		// tuning vs the VC-aware optimum, all platforms.
		"baselines": func() (renderable, error) {
			return experiments.BaselineStudy(ctx, fig2Platforms, costmodel.Scenario1, cfg)
		},
	}
	names := []string{"2", "3", "4", "5", "6", "7", "profiles", "baselines"}
	if *fig != "all" {
		// Every name is checked before the first figure renders, so a typo
		// late in the list fails fast instead of after minutes of work.
		names = strings.Split(*fig, ",")
		for i, f := range names {
			names[i] = strings.TrimSpace(f)
			if figures[names[i]] == nil {
				return fmt.Errorf("unknown figure %q (want 2-7, profiles, baselines, or all)", names[i])
			}
		}
	}

	for _, f := range names {
		name := "fig" + f
		res, err := figures[f]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		if sw, ok := res.(*experiments.SweepResult); ok && (f == "5" || f == "6") {
			printSlopes(sw)
		}
		if *outDir != "" {
			if err := writeCSV(*outDir, name, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func printSlopes(sw *experiments.SweepResult) {
	fmt.Println("log-log slopes of the numerical optimum vs λ_ind:")
	slopes := sw.Slopes()
	scs := make([]costmodel.Scenario, 0, len(slopes))
	for sc := range slopes {
		scs = append(scs, sc)
	}
	sort.Slice(scs, func(i, j int) bool { return scs[i] < scs[j] })
	for _, sc := range scs {
		s := slopes[sc]
		fmt.Printf("  %v: P* slope %+.3f, T* slope %+.3f, H slope %+.3f\n",
			sc, s.P, s.T, s.H)
	}
	fmt.Println()
}

func writeCSV(dir, name string, res renderable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	// Temp-and-rename: an interrupt mid-write leaves the previous CSV
	// intact instead of a truncated file a downstream plot would trust.
	if err := atomicio.WriteFile(path, res.WriteCSV); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
