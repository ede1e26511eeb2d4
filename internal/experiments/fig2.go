package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
)

// Fig2Cell is one (platform, scenario) cell of Fig. 2: the first-order and
// numerical optimal patterns with predicted and simulated overheads.
type Fig2Cell struct {
	Platform   string
	Scenario   costmodel.Scenario
	FirstOrder *Eval // nil in scenario 6 (no first-order optimum)
	Optimal    *Eval
}

// Fig2Result holds the full Fig. 2 data: for each platform and each of the
// six scenarios, P*, T* and execution overhead (first-order vs numerical,
// predicted vs simulated) at α = 0.1.
type Fig2Result struct {
	Cells []Fig2Cell
}

// Fig2 reproduces Fig. 2 on the given platforms (the paper uses all four
// of Table II). It is a sweep whose x is the platform index, so every
// (platform, scenario) cell solves and prices its own optimum.
func Fig2(ctx context.Context, platforms []platform.Platform, cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	xs := make([]float64, len(platforms))
	for i := range xs {
		xs[i] = float64(i)
	}
	build := func(x float64, sc costmodel.Scenario) (core.Model, error) {
		return BuildModel(platforms[int(x)], sc, DefaultAlpha, DefaultDowntime)
	}
	points, err := runSweep(ctx, costmodel.AllScenarios, xs, build, func(sc costmodel.Scenario, x float64) string {
		return fmt.Sprintf("fig2/%s/%v", platforms[int(x)].Name, sc)
	}, cfg)
	if err != nil {
		return nil, err
	}
	// Cells are platform-major, the sweep scenario-major.
	nS := len(costmodel.AllScenarios)
	cells := make([]Fig2Cell, len(points))
	for i, pt := range points {
		si, pi := i/len(platforms), i%len(platforms)
		cells[pi*nS+si] = Fig2Cell{Platform: platforms[pi].Name, Scenario: pt.Scenario,
			FirstOrder: pt.FirstOrder, Optimal: pt.Optimal}
	}
	return &Fig2Result{Cells: cells}, nil
}

// fig2Columns are the paper's three panels (P*, T*, overhead), first-order
// and numerical, plus the model prediction, which only the tables carry.
var fig2Columns = []column[Fig2Cell]{
	{header: "scenario", text: func(c Fig2Cell) string { return c.Scenario.String() }},
	{header: "P* (first-order)", csv: "pstar_first_order", value: fig2FirstOrder(quantityP.get)},
	{header: "P* (optimal)", csv: "pstar_optimal", value: fig2Optimal(quantityP.get)},
	{header: "T* (first-order)", csv: "tstar_first_order", value: fig2FirstOrder(quantityT.get)},
	{header: "T* (optimal)", csv: "tstar_optimal", value: fig2Optimal(quantityT.get)},
	{header: "H sim (first-order)", csv: "overhead_sim_first_order", value: fig2FirstOrder(quantityH.get)},
	{header: "H sim (optimal)", csv: "overhead_sim_optimal", value: fig2Optimal(quantityH.get)},
	{header: "H pred (first-order)", value: fig2FirstOrder(predictedH)},
	{header: "H pred (optimal)", value: fig2Optimal(predictedH)},
}

func predictedH(e Eval) float64 { return e.PredictedH }

// fig2FirstOrder and fig2Optimal read a quantity of one of the cell's
// patterns, NaN where the pattern does not exist.
func fig2FirstOrder(get func(Eval) float64) func(Fig2Cell) float64 {
	return func(c Fig2Cell) float64 { return orNaN(c.FirstOrder, get) }
}

func fig2Optimal(get func(Eval) float64) func(Fig2Cell) float64 {
	return func(c Fig2Cell) float64 { return orNaN(c.Optimal, get) }
}

// Render writes one table per platform with the paper's three panels
// (P*, T*, overhead) as columns.
func (r *Fig2Result) Render(w io.Writer) error {
	for cells := range slices.Chunk(r.Cells, len(costmodel.AllScenarios)) {
		title := fmt.Sprintf("Fig. 2 — optimal patterns on %s (α=%g, D=%gs)",
			cells[0].Platform, DefaultAlpha, DefaultDowntime)
		if err := renderTable(w, title, fig2Columns, cells); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the long-form series (one row per platform × scenario ×
// method × quantity).
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "cell_index", fig2Columns, r.Cells)
}
