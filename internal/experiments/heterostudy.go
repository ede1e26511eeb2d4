package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
)

// HeteroCell is one (scenario, comm, split) cell of the heterogeneous
// study: the joint optimum over active set, work split and per-group
// patterns, its model prediction and Monte-Carlo price, against the
// CPU-only single-group optimum of the same scenario.
type HeteroCell struct {
	Scenario costmodel.Scenario
	// Comm is the topology's inter-group communication coefficient κ.
	Comm float64
	// Split sizes the accelerator group as Split·(CPU size).
	Split float64
	// Active is the optimal active group count.
	Active int
	// CPUP and AccelP are the per-group allocations (NaN when the group
	// is inactive).
	CPUP, AccelP float64
	// AccelFrac is the accelerator's work share x_accel (0 when inactive).
	AccelFrac float64
	// PredictedH is the combined model overhead H = 1/Σ 1/A_g.
	PredictedH float64
	// SimulatedH is the Monte-Carlo mean makespan overhead with CI95
	// half-width SimCI (NaN when the cell is unsimulable).
	SimulatedH, SimCI float64
	// SingleH is the simulated overhead of the CPU-only baseline.
	SingleH float64
	// SavingPct is the relative overhead reduction of the simulated
	// heterogeneous optimum over the CPU-only baseline, in percent.
	SavingPct float64
}

// HeteroResult is the full study: scenarios × comm terms × group splits
// on one CPU platform plus its derived accelerator group.
type HeteroResult struct {
	Platform string
	Cells    []HeteroCell
}

// DefaultHeteroComms is the communication axis of the study, from free
// cooperation to a comm bill that dominates the parallel gain.
var DefaultHeteroComms = []float64{0, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4}

// DefaultHeteroSplits is the accelerator-size axis: the accelerator group
// holds Split·(CPU size) processors.
var DefaultHeteroSplits = []float64{0.0625, 0.25, 1}

// HeteroStudyTopology derives the study's two-group topology from a CPU
// platform: the platform itself as the baseline group, plus an
// accelerator group that is 8× faster and 50× less reliable per
// processor, with a cheaper checkpoint (smaller device memory: C/5, V/4),
// sized at split·(CPU size).
func HeteroStudyTopology(pl platform.Platform, comm, split float64) platform.Topology {
	size := math.Round(split * pl.Processors)
	if size < 1 {
		size = 1
	}
	return platform.Topology{
		Name: pl.Name + "+accel",
		Comm: comm,
		Groups: []platform.Group{
			{Name: "cpu", LambdaInd: pl.LambdaInd, FailStopFraction: pl.FailStopFraction,
				SilentFraction: pl.SilentFraction, Size: pl.Processors, Speed: 1,
				CheckpointCost: pl.CheckpointCost, VerificationCost: pl.VerificationCost},
			{Name: "accel", LambdaInd: 50 * pl.LambdaInd, FailStopFraction: pl.FailStopFraction,
				SilentFraction: pl.SilentFraction, Size: size, Speed: 8,
				CheckpointCost: pl.CheckpointCost / 5, VerificationCost: pl.VerificationCost / 4},
		},
	}
}

// HeterogeneousStudy runs the topology-aware heterogeneous platform
// study: for each scenario, inter-group comm term and accelerator split,
// the joint optimum — which groups work, how the load divides, what
// pattern each group runs — priced by Monte-Carlo and compared with the
// CPU-only single-group optimum. nil comms and splits select the default
// axes; scenarios defaults to 1, 3 and 5 as in the sweep figures.
//
// It solves and prices the CPU-only baseline once per scenario
// (scenarioBaselines: a one-group topology is the classical optimum, so
// the baseline is optimize.OptimalPattern with PMax at the CPU size),
// then runs one parallelFor job per cell that compiles the cell's
// topology, solves its joint optimum (hetero.OptimalPattern on integral
// allocations) and prices it with PriceHetero under a per-cell label
// seed.
func HeterogeneousStudy(ctx context.Context, pl platform.Platform, comms, splits []float64,
	scenarios []costmodel.Scenario, cfg Config) (*HeteroResult, error) {
	cfg = cfg.withDefaults()
	if len(comms) == 0 {
		comms = DefaultHeteroComms
	}
	if len(splits) == 0 {
		splits = DefaultHeteroSplits
	}
	for _, split := range splits {
		// HeteroStudyTopology rounds a sub-processor accelerator up to one
		// processor; a split of 0 or below would be priced as that and
		// reported under a size that was never run.
		if !(split > 0) {
			return nil, fmt.Errorf("experiments: hetero split %g is not positive", split)
		}
	}
	if len(scenarios) == 0 {
		scenarios = scenarios135
	}

	// Every solve, baseline and cell, runs on integral allocations, so
	// the priced plans stay physical.
	single, err := scenarioBaselines(ctx, pl, scenarios,
		optimize.PatternOptions{IntegerP: true, PMax: pl.Processors}, cfg,
		func(sc costmodel.Scenario) string { return fmt.Sprintf("hetero/%s/%v/cpu-only", pl.Name, sc) })
	if err != nil {
		return nil, err
	}
	opts := hetero.PatternOptions{PatternOptions: optimize.PatternOptions{IntegerP: true}}

	nSp, nCo := len(splits), len(comms)
	cells := make([]HeteroCell, len(scenarios)*nSp*nCo)
	err = parallelFor(ctx, len(cells), func(ctx context.Context, i int) error {
		sc, base := scenarios[i/(nSp*nCo)], single[i/(nSp*nCo)]
		split, comm := splits[i/nCo%nSp], comms[i%nCo]
		label := fmt.Sprintf("hetero/%s/%v/split=%g/comm=%g", pl.Name, sc, split, comm)
		hm, err := hetero.CompileTopology(HeteroStudyTopology(pl, comm, split), sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", label, err)
		}
		res, err := hetero.OptimalPattern(hm, opts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", label, err)
		}
		pr, err := PriceHetero(ctx, hm, res.Groups, cfg.runConfig(label))
		if err != nil {
			return fmt.Errorf("experiments: simulating %s: %w", label, err)
		}
		cell := HeteroCell{
			Scenario:   sc,
			Comm:       comm,
			Split:      split,
			Active:     res.Active,
			CPUP:       math.NaN(),
			AccelP:     math.NaN(),
			PredictedH: res.Overhead,
			SimulatedH: pr.H,
			SimCI:      pr.CI,
			SingleH:    base.SimulatedH,
			SavingPct:  (1 - pr.H/base.SimulatedH) * 100,
		}
		for _, gp := range res.Groups {
			switch gp.Group {
			case 0:
				cell.CPUP = gp.P
			case 1:
				cell.AccelP = gp.P
				cell.AccelFrac = gp.Fraction
			}
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &HeteroResult{Platform: pl.Name, Cells: cells}, nil
}

// heteroColumns render the study: the joint heterogeneous optimum and
// price per (scenario, split, comm), against the CPU-only optimum.
var heteroColumns = []column[HeteroCell]{
	scenarioColumn(func(c HeteroCell) costmodel.Scenario { return c.Scenario }),
	{header: "split", csv: "split", value: func(c HeteroCell) float64 { return c.Split }},
	{header: "κ", csv: "comm", value: func(c HeteroCell) float64 { return c.Comm }},
	{header: "G", csv: "active", value: func(c HeteroCell) float64 { return float64(c.Active) },
		text: func(c HeteroCell) string { return strconv.Itoa(c.Active) }},
	{header: "P cpu", csv: "p_cpu", value: func(c HeteroCell) float64 { return c.CPUP }},
	{header: "P accel", csv: "p_accel", value: func(c HeteroCell) float64 { return c.AccelP }},
	{header: "x accel", csv: "x_accel", value: func(c HeteroCell) float64 { return c.AccelFrac }},
	{header: "H pred", csv: "overhead_pred", value: func(c HeteroCell) float64 { return c.PredictedH }},
	{header: "H sim", csv: "overhead_sim", value: func(c HeteroCell) float64 { return c.SimulatedH }},
	{header: "H sim (cpu)", csv: "overhead_sim_cpu", value: func(c HeteroCell) float64 { return c.SingleH }},
	{header: "saving", csv: "saving_pct", value: func(c HeteroCell) float64 { return c.SavingPct },
		text: func(c HeteroCell) string { return percentText("%+.2f%%", c.SavingPct) }},
}

// Render writes the study as one table.
func (r *HeteroResult) Render(w io.Writer) error {
	return renderTable(w, fmt.Sprintf("Heterogeneous study on %s — joint (groups, split, T, P) optimum vs CPU-only, α=%g, D=%gs",
		r.Platform, DefaultAlpha, DefaultDowntime), heteroColumns, r.Cells)
}

// WriteCSV emits the study in long form, one series per quantity, x =
// cell index in (scenario-major, split, comm-minor) order.
func (r *HeteroResult) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "cell_index", heteroColumns, r.Cells)
}
