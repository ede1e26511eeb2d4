package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
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
}

// MultilevelResult is the full study: Table III scenarios × in-memory
// cost fractions on one platform.
type MultilevelResult struct {
	Platform string
	Cells    []MultilevelCell
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
// It solves and prices the single-level optimum once per scenario
// (scenarioBaselines), then runs one parallelFor job per cell that
// solves the joint optimum on integral allocations
// (multilevel.OptimalPattern with IntegerP) and prices it with
// PriceTwoLevel under a per-cell label seed.
func MultilevelStudy(ctx context.Context, pl platform.Platform, fracs []float64,
	scenarios []costmodel.Scenario, cfg Config) (*MultilevelResult, error) {
	cfg = cfg.withDefaults()
	if len(fracs) == 0 {
		fracs = DefaultMultilevelFractions
	}
	if len(scenarios) == 0 {
		scenarios = scenarios135
	}
	single, err := scenarioBaselines(ctx, pl, scenarios, optimize.PatternOptions{}, cfg,
		func(sc costmodel.Scenario) string { return fmt.Sprintf("multilevel/%s/%v/single-level", pl.Name, sc) })
	if err != nil {
		return nil, err
	}

	cells := make([]MultilevelCell, len(scenarios)*len(fracs))
	err = parallelFor(ctx, len(cells), func(ctx context.Context, i int) error {
		sc, base, frac := scenarios[i/len(fracs)], single[i/len(fracs)], fracs[i%len(fracs)]
		m, err := BuildModel(pl, sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("multilevel/%s/%v/frac=%g", pl.Name, sc, frac)
		res, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, frac),
			multilevel.PatternOptions{IntegerP: true})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", label, err)
		}
		pr, err := PriceTwoLevel(ctx, m, frac, multilevel.Pattern{T: res.T, K: res.K}, res.P,
			res.AtPBound, cfg.runConfig(label))
		if err != nil {
			return fmt.Errorf("experiments: simulating %s: %w", label, err)
		}
		cells[i] = MultilevelCell{
			Scenario:   sc,
			Frac:       frac,
			T:          res.T,
			K:          res.K,
			P:          res.P,
			PredictedH: res.PredictedH,
			SimulatedH: pr.H,
			SimCI:      pr.CI,
			SingleP:    base.P,
			SingleH:    base.SimulatedH,
			SavingPct:  (1 - pr.H/base.SimulatedH) * 100,
			AtBound:    res.AtPBound,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MultilevelResult{Platform: pl.Name, Cells: cells}, nil
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
