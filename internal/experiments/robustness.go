package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// RobustnessCell is one (scenario, shape) cell of the robustness study:
// how much of the exponential-optimal pattern's quality survives when
// the real failure law is not memoryless.
type RobustnessCell struct {
	Scenario costmodel.Scenario
	// Shape is the distribution's shape parameter (Weibull/Gamma k, or
	// log-normal σ).
	Shape float64
	// Dist names the calibrated per-processor inter-arrival law.
	Dist string
	// T and P are the exponential-optimal pattern (the paper's numerical
	// optimum under the memoryless model).
	T, P float64
	// PredictedH is what the exponential model believes H(T, P) is.
	PredictedH float64
	// NaiveH is the simulated overhead of replaying (T, P) under the
	// true distribution, with CI95 half-width NaiveCI.
	NaiveH, NaiveCI float64
	// RetunedT is the best period found for the true distribution (P
	// held at the exponential optimum), and RetunedH its simulated
	// overhead with CI95 half-width RetunedCI.
	RetunedT            float64
	RetunedH, RetunedCI float64
	// GapPct is the robustness verdict: the relative overhead excess of
	// the exponential-optimal period over the re-tuned one, in percent.
	// Small gaps mean the Young/Daly-type tuning is robust to the
	// distribution change.
	GapPct float64
	// Unsimulable flags a cell whose pattern sits too deep in the
	// failure-dominated regime for the machine-level simulator.
	Unsimulable bool
}

// markUnsimulable flags the cell and NaNs every simulated quantity, for
// patterns too deep in the failure-dominated regime (or too large) for
// the machine-level simulator.
func (c *RobustnessCell) markUnsimulable() {
	c.Unsimulable = true
	c.NaiveH, c.NaiveCI = math.NaN(), math.NaN()
	c.RetunedT, c.RetunedH, c.RetunedCI = math.NaN(), math.NaN(), math.NaN()
	c.GapPct = math.NaN()
}

// RobustnessResult is the full study: Table III scenarios × shape values
// on one platform, everything priced by the machine-level simulator with
// per-processor renewal clocks.
type RobustnessResult struct {
	Platform string
	DistName string
	Cells    []RobustnessCell
}

// retuneMultipliers is the log-symmetric period grid of the re-tuning
// search: T* × 2^{i/2} for i ∈ [−4, 4]. The exponential optimum itself
// (multiplier 1) is part of the grid and is priced with the same seed
// (common random numbers), so the selection can never prefer a period
// that is worse under the shared noise. A winning candidate is then
// re-priced with an independent seed — taking the minimum of nine noisy
// means is upward-biased (winner's curse), so the confirmation estimate
// is what the table reports; if it does not actually beat the naive
// period, the cell falls back to the naive anchor and a zero gap. The
// reported gap is therefore conservative (never negative, and if
// anything understated).
var retuneMultipliers = []float64{0.25, 0.3536, 0.5, 0.7071, 1, 1.4142, 2, 2.8284, 4}

// RobustnessStudy stresses the exponential-optimal patterns of the given
// scenarios (nil = all six Table III scenarios) against a non-memoryless
// failure law: for each scenario it computes the paper's numerical
// optimum (T*, P*), replays it under the true distribution — distName
// with each shape in shapes, calibrated to the platform MTBF — and
// re-tunes the period by simulated search over retuneMultipliers. The
// reported gap is the price of tuning with the wrong (memoryless) model,
// exactly the classic robustness question asked of Young/Daly formulas.
func RobustnessStudy(ctx context.Context, pl platform.Platform, distName string, shapes []float64,
	scenarios []costmodel.Scenario, cfg Config) (*RobustnessResult, error) {
	cfg = cfg.withDefaults()
	if len(shapes) == 0 {
		return nil, errors.New("experiments: robustness study needs at least one shape")
	}
	if len(scenarios) == 0 {
		scenarios = costmodel.AllScenarios
	}
	// Validate the law and name once before fanning out.
	if _, err := failures.ParseDistribution(distName, shapes[0], pl.LambdaInd); err != nil {
		return nil, err
	}

	// The exponential-optimal pattern depends only on the scenario, not
	// on the stressed shape: solve once per scenario instead of once per
	// (scenario, shape) cell.
	scModels := make([]core.Model, len(scenarios))
	scNums := make([]optimize.PatternResult, len(scenarios))
	for i, sc := range scenarios {
		m, err := BuildModel(pl, sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return nil, err
		}
		num, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: optimizing robustness/%s/%s: %w", pl.Name, distName, err)
		}
		scModels[i], scNums[i] = m, num
	}

	cells := make([]RobustnessCell, len(scenarios)*len(shapes))
	err := parallelFor(ctx, len(cells), func(ctx context.Context, i int) error {
		sc := scenarios[i/len(shapes)]
		shape := shapes[i%len(shapes)]
		label := fmt.Sprintf("robustness/%s/%s/k%g/%v", pl.Name, distName, shape, sc)

		m := scModels[i/len(shapes)]
		dist, err := failures.ParseDistribution(distName, shape, pl.LambdaInd)
		if err != nil {
			return err
		}
		num := scNums[i/len(shapes)]
		procs, ok := machineProcs(num.P)
		cell := RobustnessCell{
			Scenario:   sc,
			Shape:      shape,
			Dist:       dist.Name(),
			T:          num.T,
			P:          float64(procs),
			PredictedH: m.Overhead(num.T, float64(procs)),
		}
		if !ok {
			cell.markUnsimulable()
			cells[i] = cell
			return nil
		}

		// Price every period in the grid with common random numbers (the
		// same per-cell seed), so grid points differ only by the period.
		seed := cellSeed(cfg.Seed, label)
		// Divide the GOMAXPROCS budget between the cell level and the runs
		// within each campaign: the outer parallelFor already runs up to
		// GOMAXPROCS cells, so a single-cell study (the common CLI
		// invocation) gets its whole budget per campaign while a full
		// sweep stays at ~GOMAXPROCS total. Per-run streams are
		// seed-derived, so the worker count never changes results.
		cellWorkers := max(runtime.GOMAXPROCS(0)/len(cells), 1)
		price := func(t float64, s uint64) (Price, error) {
			return PricePattern(ctx, m, t, float64(procs), sim.RunConfig{
				Runs:     cfg.Runs,
				Patterns: cfg.Patterns,
				Seed:     s,
				Workers:  cellWorkers,
				Dist:     dist,
			})
		}

		// The naive (exponential-optimal) period anchors the comparison;
		// if it is unsimulable the whole cell is reported so — a re-tuned
		// column without its baseline would be contradictory — and the
		// rest of the grid's Monte-Carlo budget is not spent.
		naive, err := price(num.T, seed)
		if err != nil {
			return fmt.Errorf("experiments: simulating %s ×1: %w", label, err)
		}
		if naive.Unsimulable {
			cell.markUnsimulable()
			cells[i] = cell
			return nil
		}
		cell.NaiveH, cell.NaiveCI = naive.H, naive.CI
		bestH, bestT := naive.H, num.T
		for _, mult := range retuneMultipliers {
			if mult == 1 {
				continue // the naive point, already priced
			}
			t := num.T * mult
			pr, err := price(t, seed)
			if err != nil {
				return fmt.Errorf("experiments: simulating %s ×%g: %w", label, mult, err)
			}
			if pr.Unsimulable {
				continue // this grid point is off the simulable map
			}
			if pr.H < bestH {
				bestH, bestT = pr.H, t
			}
		}
		cell.RetunedT, cell.RetunedH, cell.RetunedCI = num.T, naive.H, naive.CI
		if bestT != num.T {
			// Confirm the selected period on an independent stream; the
			// CRN minimum that chose it is upward-biased for the gap.
			confirm, err := price(bestT, cellSeed(seed, "retune-confirm"))
			if err != nil {
				return fmt.Errorf("experiments: confirming %s T=%g: %w", label, bestT, err)
			}
			if !confirm.Unsimulable && confirm.H < naive.H {
				cell.RetunedT, cell.RetunedH, cell.RetunedCI = bestT, confirm.H, confirm.CI
			}
		}
		cell.GapPct = (cell.NaiveH - cell.RetunedH) / cell.RetunedH * 100
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RobustnessResult{
		Platform: pl.Name,
		DistName: distName,
		Cells:    cells,
	}, nil
}

// robustnessColumns render the study: the exponential-optimal pattern,
// what the memoryless model believes it costs, what it actually costs
// under the true law, and what a re-tuned period recovers.
var robustnessColumns = []column[RobustnessCell]{
	scenarioColumn(func(c RobustnessCell) costmodel.Scenario { return c.Scenario }),
	{header: "shape", csv: "shape", value: func(c RobustnessCell) float64 { return c.Shape }},
	{header: "P*", csv: "pstar", value: func(c RobustnessCell) float64 { return c.P }},
	{header: "T* (exp-opt)", csv: "tstar", value: func(c RobustnessCell) float64 { return c.T }},
	{header: "H pred (exp)", csv: "overhead_pred_exponential", value: func(c RobustnessCell) float64 { return c.PredictedH }},
	{header: "H sim (exp-opt T)", csv: "overhead_sim_naive", value: func(c RobustnessCell) float64 { return c.NaiveH }},
	{header: "T (re-tuned)", csv: "t_retuned", value: func(c RobustnessCell) float64 { return c.RetunedT }},
	{header: "H sim (re-tuned)", csv: "overhead_sim_retuned", value: func(c RobustnessCell) float64 { return c.RetunedH }},
	{header: "gap", csv: "gap_pct", value: func(c RobustnessCell) float64 { return c.GapPct },
		text: func(c RobustnessCell) string { return percentText("+%.2f%%", c.GapPct) }},
}

// Render writes the study as one table.
func (r *RobustnessResult) Render(w io.Writer) error {
	return renderTable(w, fmt.Sprintf("Robustness study on %s — %s arrivals, α=%g, D=%gs (machine-level simulation)",
		r.Platform, r.DistName, DefaultAlpha, DefaultDowntime), robustnessColumns, r.Cells)
}

// WriteCSV emits the study in long form, one series per quantity, x =
// cell index in (scenario-major, shape-minor) order.
func (r *RobustnessResult) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "cell_index", robustnessColumns, r.Cells)
}

// DefaultRobustnessShapes is the Weibull shape sweep of the study:
// k ∈ [0.5, 1], from strongly bursty to the memoryless baseline.
var DefaultRobustnessShapes = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1}
