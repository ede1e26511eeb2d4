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
}

// modelBuilder produces the model for a given sweep coordinate.
type modelBuilder func(x float64, sc costmodel.Scenario) (core.Model, error)

// runSweep prices every (scenario, x) cell and returns them
// scenario-major. Each cell is one parallelFor job that builds its
// model, solves its numerical optimum (optimize.OptimalPattern: the
// paper's curves are independent per-point optima) and prices its
// first-order and numerical patterns by Monte-Carlo, seeded from
// label(sc, x) — formatted once per cell. cfg must carry its defaults.
func runSweep(ctx context.Context, scenarios []costmodel.Scenario, xs []float64, build modelBuilder,
	label func(sc costmodel.Scenario, x float64) string, cfg Config) ([]SweepPoint, error) {
	points := make([]SweepPoint, len(scenarios)*len(xs))
	err := parallelFor(ctx, len(points), func(ctx context.Context, i int) error {
		sc, x := scenarios[i/len(xs)], xs[i%len(xs)]
		m, err := build(x, sc)
		if err != nil {
			return err
		}
		cell := label(sc, x)
		num, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
		if err != nil {
			return fmt.Errorf("experiments: optimizing %s: %w", cell, err)
		}
		fo, err := solveFirstOrder(ctx, m, cfg, cell)
		if err != nil {
			return err
		}
		opt, err := simulateEval(ctx, m, num.T, num.P, cfg, cell+"/numerical")
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
	return &SweepResult{Name: name, XLabel: xLabel, Points: points}, nil
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

// Render writes the three panels as tables: a row per axis value, in
// driver order, with the first-order and numerical P*, T* and simulated
// overhead per scenario.
func (r *SweepResult) Render(w io.Writer) error {
	rows := axisRows(len(r.Points), len(scenarios135))
	for _, panel := range []struct {
		title string
		q     quantity
	}{
		{fmt.Sprintf("%s(a) — optimal processors P* vs %s", r.Name, r.XLabel), quantityP},
		{fmt.Sprintf("%s(b) — optimal period T* vs %s", r.Name, r.XLabel), quantityT},
		{fmt.Sprintf("%s(c) — simulated overhead vs %s", r.Name, r.XLabel), quantityH},
	} {
		cols := []column[int]{{header: r.XLabel, value: func(i int) float64 { return r.Points[i].X }}}
		for si, sc := range scenarios135 {
			at := func(i int) SweepPoint { return r.Points[si*len(rows)+i] }
			cols = append(cols,
				column[int]{header: fmt.Sprintf("sc%d first-order", int(sc)),
					value: func(i int) float64 { return orNaN(at(i).FirstOrder, panel.q.get) }},
				column[int]{header: fmt.Sprintf("sc%d optimal", int(sc)),
					value: func(i int) float64 { return orNaN(at(i).Optimal, panel.q.get) }})
		}
		if err := renderTable(w, panel.title, cols, rows); err != nil {
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
