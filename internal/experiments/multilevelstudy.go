package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// MultilevelCell is one (scenario, in-memory fraction) cell of the
// multilevel study: the joint two-level optimum (T*, K*, P*), its
// first-order prediction and Monte-Carlo price, against the single-level
// numerical optimum of the same scenario.
type MultilevelCell struct {
	Scenario costmodel.Scenario
	// Frac prices the in-memory checkpoint at Frac·C_P.
	Frac float64
	// T, K and P are the joint two-level optimum.
	T float64
	K int
	P float64
	// PredictedH is the first-order two-level overhead at the optimum.
	PredictedH float64
	// SimulatedH is the Monte-Carlo mean overhead with CI95 half-width
	// SimCI (NaN when the cell is unsimulable).
	SimulatedH, SimCI float64
	// SingleP and SingleH are the single-level numerical optimum and its
	// simulated overhead — the baseline the two-level protocol must beat.
	SingleP, SingleH float64
	// SavingPct is the relative overhead reduction of the simulated
	// two-level optimum over the simulated single-level one, in percent.
	SavingPct float64
	// AtBound flags a joint optimum that stopped at the processor search
	// bound; such cells are reported unsimulated, as are cells the
	// two-level simulator refuses for error pressure.
	AtBound bool
	// Warm reports that the cell was solved in the warm bracket of its
	// axis neighbour.
	Warm bool
}

// MultilevelResult is the full study: Table III scenarios × in-memory
// cost fractions on one platform.
type MultilevelResult struct {
	Platform string
	Cells    []MultilevelCell
	Cfg      Config
}

// DefaultMultilevelFractions is the in-memory cost axis of the study:
// C1/C2 from 1/60 (a 5 s buddy checkpoint under a 300 s disk one) to 1
// (the in-memory level as expensive as disk — the protocol's break-even
// sanity cell).
var DefaultMultilevelFractions = []float64{1.0 / 60, 1.0 / 15, 0.2, 0.5, 1}

// MultilevelStudy runs the two-level extension study: for each scenario
// and in-memory cost fraction, the joint (T, K, P) optimum — the paper's
// central how-many-processors question asked of the two-level protocol —
// priced by Monte-Carlo and compared with the single-level numerical
// optimum. nil fracs and scenarios select the defaults (the
// DefaultMultilevelFractions axis; scenarios 1, 3, 5 as in the sweep
// figures).
//
// It runs the two-phase sweep shape: phase 1 solves the joint optima as
// one warm-start chain per scenario along the fraction axis
// (multilevel.SweepSolver; cfg.ColdSolve restores per-cell full-box
// scans) plus one single-level chain across scenarios, phase 2 prices
// every cell by Monte-Carlo in parallel with per-cell label seeds.
func MultilevelStudy(ctx context.Context, pl platform.Platform, fracs []float64,
	scenarios []costmodel.Scenario, cfg Config) (*MultilevelResult, error) {
	cfg = cfg.withDefaults()
	if len(fracs) == 0 {
		fracs = DefaultMultilevelFractions
	}
	if len(scenarios) == 0 {
		scenarios = scenarios135
	}

	// Phase 1a: one single-level warm-start chain across the scenarios
	// (the baseline depends only on the scenario, not on the fraction).
	scModels := make([]core.Model, len(scenarios))
	for i, sc := range scenarios {
		m, err := BuildModel(pl, sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return nil, err
		}
		scModels[i] = m
	}
	scNums, err := optimize.BatchOptimalPattern(scModels, optimize.SweepOptions{Cold: cfg.ColdSolve})
	if err != nil {
		return nil, fmt.Errorf("experiments: multilevel/%s single-level baseline: %w", pl.Name, err)
	}

	// Phase 1b: one multilevel chain per scenario along the fraction
	// axis. IntegerP keeps the joint optimum on integral allocations, so
	// warm and cold chains land on bit-identical cells (the refinement
	// difference is far below the rounding step) and the phase-2
	// campaigns replay bit-identically across -warm modes.
	nCells := len(scenarios) * len(fracs)
	cells := make([]MultilevelCell, nCells)
	mlOpts := multilevel.SweepOptions{
		PatternOptions: multilevel.PatternOptions{IntegerP: true},
		Cold:           cfg.ColdSolve,
	}
	err = parallelFor(ctx, len(scenarios), func(ctx context.Context, si int) error {
		sc := scenarios[si]
		m := scModels[si]
		solver := multilevel.NewSweepSolver(mlOpts)
		for fi, frac := range fracs {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := solver.Solve(m, multilevel.InMemoryFraction(m, frac))
			if err != nil {
				return fmt.Errorf("experiments: multilevel/%s/%v/frac=%g: %w",
					pl.Name, sc, frac, err)
			}
			cells[si*len(fracs)+fi] = MultilevelCell{
				Scenario:   sc,
				Frac:       frac,
				T:          res.T,
				K:          res.K,
				P:          res.P,
				PredictedH: res.PredictedH,
				AtBound:    res.AtPBound,
				Warm:       res.Warm,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: all Monte-Carlo campaigns in parallel — one two-level
	// campaign per cell plus one single-level baseline per scenario
	// (appended after the cells in the job index space).
	singleH := make([]float64, len(scenarios))
	err = parallelFor(ctx, nCells+len(scenarios), func(ctx context.Context, i int) error {
		if i >= nCells {
			// Single-level baseline: the scenario's numerical optimum
			// priced by the pattern-level simulator.
			si := i - nCells
			num := scNums[si]
			ev, err := simulateEval(ctx, scModels[si], num.Solution, num.AtPBound, cfg,
				fmt.Sprintf("multilevel/%s/%v/single-level", pl.Name, scenarios[si]))
			if err != nil {
				return err
			}
			singleH[si] = ev.SimulatedH
			return nil
		}
		cell := &cells[i]
		if cell.AtBound {
			cell.SimulatedH, cell.SimCI = math.NaN(), math.NaN()
			return nil
		}
		label := fmt.Sprintf("multilevel/%s/%v/frac=%g", pl.Name, cell.Scenario, cell.Frac)
		res, err := multilevel.SimulateModel(ctx, scModels[i/len(fracs)], cell.Frac,
			multilevel.Pattern{T: cell.T, K: cell.K}, cell.P, multilevel.CampaignConfig{
				Runs:     cfg.Runs,
				Patterns: cfg.Patterns,
				Seed:     cellSeed(cfg.Seed, label),
				Workers:  1, // parallelism lives at the cell level
			})
		if errors.Is(err, sim.ErrErrorPressure) {
			cell.SimulatedH, cell.SimCI = math.NaN(), math.NaN()
			return nil
		}
		if err != nil {
			return fmt.Errorf("experiments: simulating %s: %w", label, err)
		}
		cell.SimulatedH, cell.SimCI = res.Overhead.Mean, res.Overhead.CI95
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Join the baseline into every cell of its scenario.
	for i := range cells {
		si := i / len(fracs)
		cells[i].SingleP = scNums[si].P
		cells[i].SingleH = singleH[si]
		cells[i].SavingPct = (1 - cells[i].SimulatedH/singleH[si]) * 100
	}
	return &MultilevelResult{Platform: pl.Name, Cells: cells, Cfg: cfg}, nil
}

// multilevelColumns render the study: the joint two-level structure and
// price per (scenario, fraction), against the single-level optimum.
var multilevelColumns = []column[MultilevelCell]{
	scenarioColumn(func(c MultilevelCell) costmodel.Scenario { return c.Scenario }),
	{header: "C1/C2", csv: "frac", value: func(c MultilevelCell) float64 { return c.Frac }},
	{header: "T* (s)", csv: "tstar", value: func(c MultilevelCell) float64 { return c.T }},
	{header: "K*", csv: "kstar", value: func(c MultilevelCell) float64 { return float64(c.K) },
		text: func(c MultilevelCell) string { return strconv.Itoa(c.K) }},
	{header: "P*", csv: "pstar", value: func(c MultilevelCell) float64 { return c.P }},
	{header: "H pred", csv: "overhead_pred", value: func(c MultilevelCell) float64 { return c.PredictedH }},
	{header: "H sim", csv: "overhead_sim", value: func(c MultilevelCell) float64 { return c.SimulatedH }},
	{header: "P* (1-level)", csv: "pstar_single", value: func(c MultilevelCell) float64 { return c.SingleP }},
	{header: "H sim (1-level)", csv: "overhead_sim_single", value: func(c MultilevelCell) float64 { return c.SingleH }},
	{header: "saving", csv: "saving_pct", value: func(c MultilevelCell) float64 { return c.SavingPct },
		text: func(c MultilevelCell) string { return percentText("%+.2f%%", c.SavingPct) }},
}

// Render writes the study as one table.
func (r *MultilevelResult) Render(w io.Writer) error {
	return renderTable(w, fmt.Sprintf("Multilevel study on %s — joint (T, K, P) optimum vs single-level, α=%g, D=%gs",
		r.Platform, DefaultAlpha, DefaultDowntime), multilevelColumns, r.Cells)
}

// WriteCSV emits the study in long form, one series per quantity, x =
// cell index in (scenario-major, fraction-minor) order.
func (r *MultilevelResult) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "cell_index", multilevelColumns, r.Cells)
}
