package experiments

import (
	"context"
	"errors"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// Price is the Monte-Carlo price of one cell: the mean overhead H with
// its CI95 half-width, and the integral allocation Procs a machine-level
// price ran at (0 otherwise). Every study, figure and campaign cell
// prices through PricePattern, PriceTwoLevel or PriceHetero, which
// together own the rule that makes a cell unsimulable: a pattern too deep
// in the failure-dominated regime (sim.ErrErrorPressure), a machine
// population above sim.MaxMachineProcs, or a two-level optimum at the
// allocation bound. An unsimulable cell has NaN H and CI and no error;
// the exact model still prices it.
type Price struct {
	H, CI       float64
	Procs       int
	Unsimulable bool
}

// PricePattern prices PATTERN(T, P) under m with cfg's budget, seed and
// workers: on the pattern-level simulator, or, when cfg.Dist is set, on
// the machine-level simulator at the rounded allocation machineProcs(P),
// which Procs records.
func PricePattern(ctx context.Context, m core.Model, t, p float64, cfg sim.RunConfig) (Price, error) {
	procs := 0
	if cfg.Dist != nil {
		n, ok := machineProcs(p)
		if !ok {
			return unsimulable(0), nil
		}
		procs, p, cfg.Machine = n, float64(n), true
	}
	res, err := sim.SimulateContext(ctx, m, t, p, cfg)
	return priced(res.Overhead, procs, err)
}

// PriceTwoLevel prices the two-level PATTERN(T, K) at P processors with
// the in-memory checkpoint at frac·C_P (multilevel.SimulateModel), with
// cfg's budget, seed and workers. An optimum at the allocation bound is
// unsimulable without a simulation.
func PriceTwoLevel(ctx context.Context, m core.Model, frac float64, pat multilevel.Pattern, p float64,
	atBound bool, cfg sim.RunConfig) (Price, error) {
	if atBound {
		return unsimulable(0), nil
	}
	res, err := multilevel.SimulateModel(ctx, m, frac, pat, p, multilevel.CampaignConfig{
		Runs: cfg.Runs, Patterns: cfg.Patterns, Seed: cfg.Seed, Workers: cfg.Workers})
	return priced(res.Overhead, 0, err)
}

// PriceHetero prices a heterogeneous plan by its makespan overhead: the
// plan lowered by hetero.GroupRuns, simulated group by group.
func PriceHetero(ctx context.Context, hm core.HeteroModel, plan []hetero.GroupPlan, cfg sim.RunConfig) (Price, error) {
	groups, err := hetero.GroupRuns(hm, plan)
	if err != nil {
		return Price{}, err
	}
	res, err := sim.SimulateHeteroContext(ctx, groups, cfg)
	return priced(res.Overhead, 0, err)
}

// machineProcs is the integral allocation the machine-level simulator
// prices P at: P rounded, at least one processor, and false above
// sim.MaxMachineProcs.
func machineProcs(p float64) (int, bool) {
	n := max(math.Round(p), 1)
	return int(n), n <= sim.MaxMachineProcs
}

// priced turns a simulator's overhead summary and error into a Price.
func priced(overhead stats.Summary, procs int, err error) (Price, error) {
	if errors.Is(err, sim.ErrErrorPressure) {
		return unsimulable(procs), nil
	}
	if err != nil {
		return Price{}, err
	}
	return Price{H: overhead.Mean, CI: overhead.CI95, Procs: procs}, nil
}

func unsimulable(procs int) Price {
	return Price{H: math.NaN(), CI: math.NaN(), Procs: procs, Unsimulable: true}
}
