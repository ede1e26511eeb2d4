// Package experiments reproduces the evaluation of Section IV: one driver
// per figure (Figs. 2–7), each producing the same data series the paper
// plots, as aligned text tables, CSV series and ASCII charts.
//
// Every driver follows the paper's methodology: patterns are configured
// either from the first-order formulas (Theorems 1–3) or from the
// numerical optimization of the exact overhead, then priced by Monte-Carlo
// simulation (500 runs × 500 patterns by default, Section IV-A) and by the
// analytical model. Randomness is fully deterministic given Config.Seed.
// Every driver takes a context: a done ctx aborts in-flight Monte-Carlo
// campaigns and skips undispatched cells.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/speedup"
)

// DefaultAlpha is the sequential fraction α of the α-fixed figures and
// studies (Section IV-A), and the default of every CLI, request and
// campaign manifest.
const DefaultAlpha = 0.1

// DefaultDowntime is the downtime D in seconds after a fail-stop error
// (Section IV-A), defaulted wherever DefaultAlpha is.
const DefaultDowntime = 3600.0

// Config holds the Monte-Carlo budget of an experiment.
type Config struct {
	// Runs and Patterns set the Monte-Carlo budget per data point
	// (defaults 500 and 500, the paper's choice).
	Runs, Patterns int
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// ColdSolve disables the warm-start sweep solver: every sweep cell
	// pays the full OptimalPattern grid scan, bit-identical to per-cell
	// OptimalPattern calls (the amdahl-exp -warm=false escape hatch).
	// Warm cells agree with cold ones within the SweepSolver tolerance.
	ColdSolve bool
}

func (c Config) withDefaults() Config {
	d := sim.RunConfig{Runs: c.Runs, Patterns: c.Patterns}.WithDefaults()
	c.Runs, c.Patterns = d.Runs, d.Patterns
	return c
}

// Quick returns a configuration with a reduced Monte-Carlo budget for
// tests and benchmarks: the same code paths, ~100× less work.
func Quick() Config {
	return Config{Runs: 40, Patterns: 60}
}

// BuildModel assembles the core model for a platform, scenario, sequential
// fraction and downtime. α = 0 selects the perfectly parallel profile so
// the case-4 analysis is dispatched as in the paper.
func BuildModel(pl platform.Platform, sc costmodel.Scenario, alpha, downtime float64) (core.Model, error) {
	if err := pl.Validate(); err != nil {
		return core.Model{}, err
	}
	res, err := pl.Resilience(sc, downtime)
	if err != nil {
		return core.Model{}, err
	}
	var profile speedup.Profile
	if alpha == 0 {
		profile = speedup.PerfectlyParallel{}
	} else {
		am, err := speedup.NewAmdahl(alpha)
		if err != nil {
			return core.Model{}, err
		}
		profile = am
	}
	m := core.Model{
		LambdaInd:    pl.LambdaInd,
		FailStopFrac: pl.FailStopFraction,
		SilentFrac:   pl.SilentFraction,
		Res:          res,
		Profile:      profile,
	}
	return m, m.Validate()
}

// ResolveModel builds the model a CLI invocation or a service request
// names: the Table II platform, its λ_ind replaced by a positive lambda
// override, the Table III scenario, α and D. Zero keeps the platform
// rate; a negative or non-finite override is an error, never a silent
// fallback to the platform rate. Every surface resolves through here,
// so equal parameters build the identical model everywhere.
func ResolveModel(platformName string, scenario int, alpha, downtime, lambda float64) (core.Model, platform.Platform, error) {
	pl, err := platform.Lookup(platformName)
	if err != nil {
		return core.Model{}, platform.Platform{}, err
	}
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return core.Model{}, platform.Platform{}, fmt.Errorf(
			"lambda override %g must be positive (omit or zero to keep the platform rate)", lambda)
	}
	if lambda > 0 {
		pl = pl.WithLambda(lambda)
	}
	sc := costmodel.Scenario(scenario)
	if !sc.Valid() {
		return core.Model{}, platform.Platform{}, fmt.Errorf("scenario %d outside 1-6", scenario)
	}
	m, err := BuildModel(pl, sc, alpha, downtime)
	return m, pl, err
}

// Eval is one evaluated pattern configuration: the parameters, the model
// prediction and the Monte-Carlo measurement.
type Eval struct {
	// P and T are the pattern parameters.
	P, T float64
	// PredictedH is the exact-model overhead H(T, P).
	PredictedH float64
	// SimulatedH is the Monte-Carlo mean overhead, with CI95 half-width.
	SimulatedH float64
	SimCI      float64
	// AtBound flags a numerical optimum that stopped at the processor
	// search bound (unbounded-allocation regimes).
	AtBound bool
	// Method records the solver ("first-order" or "numerical").
	Method string
}

// cellSeed derives a stable per-cell seed from the master seed and a cell
// label, so adding or reordering cells never changes other cells' streams.
func cellSeed(master uint64, label string) uint64 {
	return rng.HashLabel(label) ^ master
}

// simulateEval prices a solution with the Monte-Carlo simulator. A
// solution that sits too deep in the failure-dominated regime to simulate
// (sim.ErrErrorPressure — this happens when a first-order method is
// applied far outside its validity region, e.g. weak-scaling profiles at
// the processor search bound) is returned with NaN simulated fields and
// the model prediction intact.
func simulateEval(ctx context.Context, m core.Model, sol core.Solution, atBound bool, cfg Config, label string) (Eval, error) {
	res, err := sim.SimulateContext(ctx, m, sol.T, sol.P, sim.RunConfig{
		Runs:     cfg.Runs,
		Patterns: cfg.Patterns,
		Seed:     cellSeed(cfg.Seed, label),
		Workers:  1, // parallelism lives at the cell level
	})
	ev := Eval{
		P:          sol.P,
		T:          sol.T,
		PredictedH: m.Overhead(sol.T, sol.P),
		SimulatedH: res.Overhead.Mean,
		SimCI:      res.Overhead.CI95,
		AtBound:    atBound,
		Method:     sol.Method,
	}
	if errors.Is(err, sim.ErrErrorPressure) {
		ev.SimulatedH, ev.SimCI = math.NaN(), math.NaN()
		ev.Method += " (unsimulable)"
		return ev, nil
	}
	if err != nil {
		return Eval{}, fmt.Errorf("experiments: simulating %s: %w", label, err)
	}
	return ev, nil
}

// solveFirstOrder returns the simulated first-order solution, or nil when
// the first-order analysis has no bounded optimum (scenario 6, or α = 0).
func solveFirstOrder(ctx context.Context, m core.Model, cfg Config, label string) (*Eval, error) {
	sol, err := m.FirstOrder()
	if errors.Is(err, core.ErrNoFirstOrder) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if sol.P < 1 {
		sol.P = 1
	}
	ev, err := simulateEval(ctx, m, sol, false, cfg, label+"/first-order")
	if err != nil {
		return nil, err
	}
	return &ev, nil
}

// parallelFor runs fn(ctx, i) for i in [0, n) on the shared pool with
// GOMAXPROCS workers (sim.ForEachRun): every cell derives its own seed,
// so the worker count never changes results; the first cell error
// cancels the cells still running, and a failing experiment reports its
// lowest failed cell.
func parallelFor(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return sim.ForEachRun(ctx, n, runtime.GOMAXPROCS(0), fn)
}

// scenarios135 is the scenario subset used by Figs. 4–7: the paper drops
// scenarios 2, 4 and 6 there because they behave like 1, 3 and 5.
var scenarios135 = []costmodel.Scenario{
	costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5,
}

// guard for NaN-safe table output.
func orNaN(e *Eval, f func(Eval) float64) float64 {
	if e == nil {
		return math.NaN()
	}
	return f(*e)
}

// solutionAt wraps a fixed (T, P) pair as a Solution for pricing.
func solutionAt(t, p float64) core.Solution {
	return core.Solution{T: t, P: p, Method: "fixed"}
}
