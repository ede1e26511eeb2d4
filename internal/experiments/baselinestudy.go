package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/baselines"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
)

// BaselineCell compares tuning policies on one platform: what a
// fail-stop-only Young/Daly tuning costs against the paper's VC-aware
// optimum, everything priced by simulation under the full error model.
type BaselineCell struct {
	Platform string
	Scenario costmodel.Scenario
	// Optimal is the exact-model numerical optimum (the paper).
	Optimal Eval
	// Young and Daly use the numerical P* but set the period from the
	// fail-stop-only formulas [20], [9].
	Young Eval
	Daly  Eval
	// Relaxation is the iterative-relaxation allocation [14].
	Relaxation Eval
	// YoungAssumedH is what the fail-stop-only analysis believes the
	// Young plan costs — the gap to Young.SimulatedH is the price of
	// ignoring silent errors in the model.
	YoungAssumedH float64
}

// BaselineStudyResult is the cross-platform baseline comparison: the
// motivation quantified — how much of the overhead reduction comes from
// modelling silent errors at all.
type BaselineStudyResult struct {
	Cells []BaselineCell
}

// BaselineStudy runs the comparison on the given platforms under one
// scenario at α = DefaultAlpha. Each platform is one parallelFor job
// that builds its model, solves its numerical optimum and prices every
// policy.
func BaselineStudy(ctx context.Context, platforms []platform.Platform, sc costmodel.Scenario, cfg Config) (*BaselineStudyResult, error) {
	cfg = cfg.withDefaults()
	cells := make([]BaselineCell, len(platforms))
	err := parallelFor(ctx, len(platforms), func(ctx context.Context, i int) error {
		pl := platforms[i]
		m, err := BuildModel(pl, sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("baselines/%s/%v", pl.Name, sc)
		num, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
		if err != nil {
			return fmt.Errorf("experiments: optimizing %s: %w", label, err)
		}
		opt, err := simulateEval(ctx, m, num.T, num.P, cfg, label+"/optimal")
		if err != nil {
			return err
		}

		young, err := baselines.PlanYoung(m, num.P)
		if err != nil {
			return err
		}
		youngEval, err := simulateEval(ctx, m, young.T, num.P, cfg, label+"/young")
		if err != nil {
			return err
		}

		daly, err := baselines.PlanDaly(m, num.P)
		if err != nil {
			return err
		}
		dalyEval, err := simulateEval(ctx, m, daly.T, num.P, cfg, label+"/daly")
		if err != nil {
			return err
		}

		relax, _, err := baselines.IterativeRelaxation(m, 0, 0)
		if err != nil {
			return err
		}
		relaxEval, err := simulateEval(ctx, m, relax.T, relax.P, cfg, label+"/relaxation")
		if err != nil {
			return err
		}

		cells[i] = BaselineCell{
			Platform:      pl.Name,
			Scenario:      sc,
			Optimal:       opt,
			Young:         youngEval,
			Daly:          dalyEval,
			Relaxation:    relaxEval,
			YoungAssumedH: young.AssumedOverhead,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BaselineStudyResult{Cells: cells}, nil
}

// baselineColumns render the comparison. The "Young believes" column
// shows the overhead the fail-stop-only model predicts for its own plan;
// the gap to "Young actual" is the modelling error caused by silent
// errors. The excess is table-only.
var baselineColumns = []column[BaselineCell]{
	{header: "platform", text: func(c BaselineCell) string { return c.Platform }},
	{header: "VC optimal", csv: "overhead_optimal", value: func(c BaselineCell) float64 { return c.Optimal.SimulatedH }},
	{header: "Young actual", csv: "overhead_young", value: func(c BaselineCell) float64 { return c.Young.SimulatedH }},
	{header: "Young believes", csv: "overhead_young_assumed", value: func(c BaselineCell) float64 { return c.YoungAssumedH }},
	{header: "Daly actual", csv: "overhead_daly", value: func(c BaselineCell) float64 { return c.Daly.SimulatedH }},
	{header: "relaxation", csv: "overhead_relaxation", value: func(c BaselineCell) float64 { return c.Relaxation.SimulatedH }},
	{header: "Young excess", text: func(c BaselineCell) string {
		return fmt.Sprintf("+%.2f%%", (c.Young.SimulatedH-c.Optimal.SimulatedH)/c.Optimal.SimulatedH*100)
	}},
}

// Render writes the comparison table.
func (r *BaselineStudyResult) Render(w io.Writer) error {
	return renderTable(w, fmt.Sprintf("Baseline comparison — %v, α=%g (simulated overheads, full error model)",
		r.Cells[0].Scenario, DefaultAlpha), baselineColumns, r.Cells)
}

// WriteCSV emits the comparison in long form.
func (r *BaselineStudyResult) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "platform_index", baselineColumns, r.Cells)
}
