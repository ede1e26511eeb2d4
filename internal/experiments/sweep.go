package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/report"
)

// SweepPoint is one (scenario, x) cell of a parameter sweep: the
// first-order solution (when it exists) and the numerical optimum, both
// priced by simulation.
type SweepPoint struct {
	Scenario costmodel.Scenario
	X        float64
	// FirstOrder is nil when the first-order analysis does not apply
	// (scenario 6, or a perfectly parallel profile).
	FirstOrder *Eval
	Optimal    *Eval
}

// SweepResult is a generic sweep over one parameter for scenarios 1, 3
// and 5 — the backbone of Figs. 4, 5, 6 and 7.
type SweepResult struct {
	// Name identifies the experiment ("Fig. 4", …).
	Name string
	// XLabel names the swept parameter ("alpha", "lambda_ind", "D").
	XLabel string
	Points []SweepPoint
	Cfg    Config
}

// modelBuilder produces the model for a given sweep coordinate.
type modelBuilder func(x float64, sc costmodel.Scenario) (core.Model, error)

// runSweep prices every (scenario, x) cell in two phases and returns
// them scenario-major. Phase 1 solves the numerical optima as one
// warm-start chain per scenario along xs: the cells along a sweep axis
// are ordered and (T*, P*) varies smoothly, so each cell's optimum
// brackets the next solve (optimize.SweepSolver; cfg.ColdSolve runs
// per-cell OptimalPattern scans instead). Phase 2 prices each cell's
// first-order and numerical patterns by Monte-Carlo in parallel, seeded
// from label(sc, x) — formatted once per priced cell. cfg must carry
// its defaults.
func runSweep(ctx context.Context, scenarios []costmodel.Scenario, xs []float64, build modelBuilder,
	label func(sc costmodel.Scenario, x float64) string, cfg Config) ([]SweepPoint, error) {
	nCells := len(scenarios) * len(xs)
	models := make([]core.Model, nCells)
	nums := make([]optimize.PatternResult, nCells)

	err := parallelFor(ctx, len(scenarios), func(ctx context.Context, si int) error {
		sc := scenarios[si]
		solver := optimize.NewSweepSolver(optimize.SweepOptions{Cold: cfg.ColdSolve})
		for xi, x := range xs {
			if err := ctx.Err(); err != nil {
				return err
			}
			m, err := build(x, sc)
			if err != nil {
				return err
			}
			num, err := solver.Solve(m)
			if err != nil {
				return fmt.Errorf("experiments: optimizing %s: %w", label(sc, x), err)
			}
			i := si*len(xs) + xi
			models[i], nums[i] = m, num
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]SweepPoint, nCells)
	err = parallelFor(ctx, nCells, func(ctx context.Context, i int) error {
		sc, x := scenarios[i/len(xs)], xs[i%len(xs)]
		m, num := models[i], nums[i]
		cell := label(sc, x)
		fo, err := solveFirstOrder(ctx, m, cfg, cell)
		if err != nil {
			return err
		}
		opt, err := simulateEval(ctx, m, num.Solution, num.AtPBound, cfg, cell+"/numerical")
		if err != nil {
			return err
		}
		points[i] = SweepPoint{Scenario: sc, X: x, FirstOrder: fo, Optimal: &opt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// runSweepFigure runs a Figs. 4–7 sweep over scenarios 1, 3 and 5, with
// cells labelled "<name>/<scenario>/<xLabel>=<x>".
func runSweepFigure(ctx context.Context, name, xLabel string, xs []float64, build modelBuilder, cfg Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	points, err := runSweep(ctx, scenarios135, xs, build, func(sc costmodel.Scenario, x float64) string {
		return fmt.Sprintf("%s/%v/%s=%g", name, sc, xLabel, x)
	}, cfg)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Name: name, XLabel: xLabel, Points: points, Cfg: cfg}, nil
}

// quantity selects which panel of a sweep figure to extract.
type quantity struct {
	name string
	get  func(Eval) float64
}

var (
	quantityP = quantity{"P*", func(e Eval) float64 { return e.P }}
	quantityT = quantity{"T*", func(e Eval) float64 { return e.T }}
	quantityH = quantity{"H (simulated)", func(e Eval) float64 { return e.SimulatedH }}
)

// Series extracts one panel as series named "<scenario> (<method>)",
// mirroring the paper's legends.
func (r *SweepResult) Series(q quantity) []report.Series {
	type key struct {
		sc     costmodel.Scenario
		method string
	}
	order := []key{}
	byKey := map[key]*report.Series{}
	add := func(k key, x float64, e *Eval) {
		if e == nil {
			return
		}
		s, ok := byKey[k]
		if !ok {
			s = &report.Series{Name: fmt.Sprintf("%v (%s)", k.sc, k.method)}
			byKey[k] = s
			order = append(order, k)
		}
		s.Add(x, q.get(*e))
	}
	for _, pt := range r.Points {
		add(key{pt.Scenario, "first-order"}, pt.X, pt.FirstOrder)
		add(key{pt.Scenario, "optimal"}, pt.X, pt.Optimal)
	}
	out := make([]report.Series, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// PSeries, TSeries and HSeries are the three panels of each sweep figure.
func (r *SweepResult) PSeries() []report.Series { return r.Series(quantityP) }

// TSeries returns the optimal-period panel.
func (r *SweepResult) TSeries() []report.Series { return r.Series(quantityT) }

// HSeries returns the simulated-overhead panel.
func (r *SweepResult) HSeries() []report.Series { return r.Series(quantityH) }

// Render writes the three panels as tables: for each x, the first-order
// and numerical P*, T* and simulated overhead per scenario.
func (r *SweepResult) Render(w io.Writer) error {
	panels := []struct {
		title string
		q     quantity
	}{
		{fmt.Sprintf("%s(a) — optimal processors P* vs %s", r.Name, r.XLabel), quantityP},
		{fmt.Sprintf("%s(b) — optimal period T* vs %s", r.Name, r.XLabel), quantityT},
		{fmt.Sprintf("%s(c) — simulated overhead vs %s", r.Name, r.XLabel), quantityH},
	}
	for _, panel := range panels {
		cols := []string{r.XLabel}
		for _, sc := range scenarios135 {
			cols = append(cols,
				fmt.Sprintf("sc%d first-order", int(sc)),
				fmt.Sprintf("sc%d optimal", int(sc)))
		}
		tb := report.NewTable(panel.title, cols...)

		byX := map[float64]map[costmodel.Scenario]SweepPoint{}
		var order []float64
		for _, pt := range r.Points {
			if _, ok := byX[pt.X]; !ok {
				byX[pt.X] = map[costmodel.Scenario]SweepPoint{}
				order = append(order, pt.X)
			}
			byX[pt.X][pt.Scenario] = pt
		}
		for _, x := range order {
			row := make([]float64, 0, 6)
			for _, sc := range scenarios135 {
				pt := byX[x][sc]
				row = append(row,
					orNaN(pt.FirstOrder, panel.q.get),
					orNaN(pt.Optimal, panel.q.get))
			}
			tb.AddFloats(report.Fmt(x), row...)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits every panel in long form.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	var all []report.Series
	for _, panel := range []struct {
		prefix string
		series []report.Series
	}{
		{"pstar/", r.PSeries()},
		{"tstar/", r.TSeries()},
		{"overhead/", r.HSeries()},
	} {
		for _, s := range panel.series {
			s.Name = panel.prefix + s.Name
			all = append(all, s)
		}
	}
	return report.WriteSeriesCSV(w, r.XLabel, "value", all...)
}

// Slopes fits log-log slopes of the numerical-optimal P*, T* and H series
// per scenario — the asymptotic-order check of Figs. 5 and 6.
func (r *SweepResult) Slopes() map[costmodel.Scenario]struct{ P, T, H float64 } {
	out := map[costmodel.Scenario]struct{ P, T, H float64 }{}
	for _, sc := range scenarios135 {
		var pSer, tSer, hSer report.Series
		for _, pt := range r.Points {
			if pt.Scenario != sc || pt.Optimal == nil {
				continue
			}
			pSer.Add(pt.X, pt.Optimal.P)
			tSer.Add(pt.X, pt.Optimal.T)
			hSer.Add(pt.X, pt.Optimal.SimulatedH)
		}
		p, _ := report.LogSlope(pSer)
		t, _ := report.LogSlope(tSer)
		h, _ := report.LogSlope(hSer)
		out[sc] = struct{ P, T, H float64 }{p, t, h}
	}
	return out
}
