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
// declarative manifest (or one of seven built-in presets: the six studies
// above and a smoke grid) expands into a deterministic cell grid — one
// protocol under one failure law, over platforms × scenarios × one axis,
// spelled {"protocol": "multilevel", "in_mem_fraction": 0.1} or
// {"dist": "weibull", "shape": 0.7} — every completed cell is banked
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
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
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

// gridCmd is the flag scaffold of the figure suite and the three
// studies: the platform, the Monte-Carlo budget, the CSV directory, the
// warm-start switch and, for the studies, -scenario. parse resolves
// them into the fields below the flags.
type gridCmd struct {
	fs                       *flag.FlagSet
	platName, out            *string
	quick, warm              *bool
	seed                     *uint64
	runs, patterns, scenario *int

	platOptional bool // an empty -platform selects the command's own set
	platform     platform.Platform
	cfg          experiments.Config
	scenarios    []costmodel.Scenario // nil: the command's default set
}

// newGridCmd registers the shared flags. scenarioAll names what
// -scenario 0 selects; an empty one registers no -scenario flag.
func newGridCmd(name, platDefault, platHelp, warmHelp, scenarioAll string) *gridCmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	g := &gridCmd{
		fs:           fs,
		platOptional: platDefault == "",
		platName:     fs.String("platform", platDefault, platHelp),
		quick:        fs.Bool("quick", false, "reduced Monte-Carlo budget (~100× faster)"),
		out:          fs.String("out", "", "directory for CSV output (optional)"),
		seed:         fs.Uint64("seed", 1, "random seed"),
		runs:         fs.Int("runs", 0, "override Monte-Carlo runs per point"),
		patterns:     fs.Int("patterns", 0, "override patterns per run"),
		warm:         fs.Bool("warm", true, warmHelp),
	}
	if scenarioAll != "" {
		g.scenario = fs.Int("scenario", 0, "restrict to one Table III scenario 1-6 (0 = "+scenarioAll+")")
	}
	return g
}

// parse parses args and resolves the shared flags: no stray positional
// (strayHint extends that error), a known platform, a budget where
// -quick selects the reduced preset and -runs/-patterns override either
// axis (0 keeps the preset's value), and a valid scenario.
func (g *gridCmd) parse(args []string, strayHint string) error {
	if err := g.fs.Parse(args); err != nil {
		return err
	}
	if g.fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q%s", g.fs.Arg(0), strayHint)
	}
	if *g.platName != "" || !g.platOptional {
		pl, err := platform.Lookup(*g.platName)
		if err != nil {
			return err
		}
		g.platform = pl
	}
	if err := nonNegative(g.fs, "runs", "patterns"); err != nil {
		return err
	}
	if *g.quick {
		g.cfg = experiments.Quick()
	}
	g.cfg.Seed, g.cfg.ColdSolve = *g.seed, !*g.warm
	if *g.runs > 0 {
		g.cfg.Runs = *g.runs
	}
	if *g.patterns > 0 {
		g.cfg.Patterns = *g.patterns
	}
	if g.scenario != nil && *g.scenario != 0 {
		sc := costmodel.Scenario(*g.scenario)
		if !sc.Valid() {
			return fmt.Errorf("scenario %d outside 1-6", *g.scenario)
		}
		g.scenarios = []costmodel.Scenario{sc}
	}
	return nil
}

// emit renders a result to stdout, Figs. 5 and 6 followed by their
// slopes, and with -out writes it to <out>/<name>.csv.
func (g *gridCmd) emit(name string, res renderable) error {
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if sw, ok := res.(*experiments.SweepResult); ok && (name == "fig5" || name == "fig6") {
		printSlopes(sw)
	}
	if *g.out == "" {
		return nil
	}
	if err := os.MkdirAll(*g.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*g.out, name+".csv")
	// Temp-and-rename: an interrupt mid-write leaves the previous CSV
	// intact instead of a truncated file a downstream plot would trust.
	if err := atomicio.WriteFile(path, res.WriteCSV); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

// nonNegative rejects a negative value of any named int or duration
// flag (their Values print it with a leading minus): 0 keeps each
// flag's default, and none has a negative meaning.
func nonNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value; strings.HasPrefix(v.String(), "-") {
			return fmt.Errorf("-%s %s is negative (0 keeps the default)", name, v)
		}
	}
	return nil
}

// runRobustness drives the non-exponential robustness study (extension
// beyond the paper; see DESIGN.md, distribution substrate).
func runRobustness(ctx context.Context, args []string) error {
	g := newGridCmd("amdahl-exp robustness", "hera", "platform supplying rates and costs",
		"warm-start the per-scenario optimizations; -warm=false restores the per-cell grid scans", "all")
	dist := g.fs.String("dist", "weibull", "true failure law: weibull, lognormal or gamma (exponential = sanity baseline)")
	shape := g.fs.Float64("shape", 0, "distribution shape (Weibull/Gamma k, log-normal σ); 0 sweeps the default Weibull range [0.5, 1]")
	if err := g.parse(args, ""); err != nil {
		return err
	}
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
	res, err := experiments.RobustnessStudy(ctx, g.platform, *dist, shapes, g.scenarios, g.cfg)
	if err != nil {
		return err
	}
	return g.emit("robustness", res)
}

// runMultilevel drives the two-level resilience study (extension beyond
// the paper, Section V future work; see DESIGN.md, "Multilevel
// end-to-end"): the joint (T, K, P) optimum per scenario × in-memory
// cost fraction, priced by Monte-Carlo against the single-level optimum.
func runMultilevel(ctx context.Context, args []string) error {
	g := newGridCmd("amdahl-exp multilevel", "hera", "platform supplying rates and costs",
		"warm-start the per-scenario (T, K, P) chains; -warm=false restores per-cell full-box scans", "scenarios 1,3,5")
	fracs := g.fs.String("frac", "", "comma-separated in-memory cost fractions C1/C2 (default 1/60,1/15,0.2,0.5,1)")
	if err := g.parse(args, ""); err != nil {
		return err
	}
	fracList, err := parseFloats(*fracs)
	if err != nil {
		return fmt.Errorf("-frac: %w", err)
	}
	res, err := experiments.MultilevelStudy(ctx, g.platform, fracList, g.scenarios, g.cfg)
	if err != nil {
		return err
	}
	return g.emit("multilevel", res)
}

// runHetero drives the heterogeneous-platform study (extension beyond
// the paper; see DESIGN.md, "Heterogeneous topologies"): the joint
// optimum over active groups, work split and per-group patterns for a
// CPU platform plus a derived accelerator group, swept over the
// inter-group comm term and the accelerator size, priced by Monte-Carlo
// against the CPU-only optimum.
func runHetero(ctx context.Context, args []string) error {
	g := newGridCmd("amdahl-exp hetero", "hera", "CPU platform supplying rates and costs (the accelerator group is derived from it)",
		"warm-start the per-(scenario, split) chains along the comm axis; -warm=false restores per-cell full-box scans", "scenarios 1,3,5")
	comms := g.fs.String("comm", "", "comma-separated inter-group comm coefficients κ (default 0,1e-6,3e-6,1e-5,3e-5,1e-4)")
	splits := g.fs.String("split", "", "comma-separated accelerator sizes as fractions of the CPU size (default 0.0625,0.25,1)")
	if err := g.parse(args, ""); err != nil {
		return err
	}
	commList, err := parseFloats(*comms)
	if err != nil {
		return fmt.Errorf("-comm: %w", err)
	}
	splitList, err := parseFloats(*splits)
	if err != nil {
		return fmt.Errorf("-split: %w", err)
	}
	res, err := experiments.HeterogeneousStudy(ctx, g.platform, commList, splitList, g.scenarios, g.cfg)
	if err != nil {
		return err
	}
	return g.emit("hetero", res)
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
	g := newGridCmd("amdahl-exp", "", "platform for Figs. 3-7 (default hera) or Fig. 2 (default all)",
		"warm-start sweep cells from the neighbouring optimum; -warm=false restores the per-cell grid scans", "")
	fig := g.fs.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, 6, 7 or all")
	// A misspelled subcommand ("robustnes") or a misplaced positional
	// must not silently launch the full-budget figure suite.
	if err := g.parse(args, " (subcommands: robustness, multilevel, hetero, campaign)"); err != nil {
		return err
	}
	cfg := g.cfg
	sweepPlatform, fig2Platforms := platform.Hera(), platform.All()
	if *g.platName != "" {
		sweepPlatform, fig2Platforms = g.platform, []platform.Platform{g.platform}
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
		res, err := figures[f]()
		if err != nil {
			return fmt.Errorf("fig%s: %w", f, err)
		}
		if err := g.emit("fig"+f, res); err != nil {
			return err
		}
	}
	return nil
}

func printSlopes(sw *experiments.SweepResult) {
	fmt.Println("log-log slopes of the numerical optimum vs λ_ind:")
	slopes := sw.Slopes()
	for _, sc := range slices.Sorted(maps.Keys(slopes)) {
		s := slopes[sc]
		fmt.Printf("  %v: P* slope %+.3f, T* slope %+.3f, H slope %+.3f\n",
			sc, s.P, s.T, s.H)
	}
	fmt.Println()
}
