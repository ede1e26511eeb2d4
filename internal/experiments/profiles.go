package experiments

import (
	"context"
	"fmt"
	"io"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// ProfileCell is one (profile, scenario) cell of the profile study.
type ProfileCell struct {
	Profile  string
	Scenario costmodel.Scenario
	// SemiAnalytic is the Theorem 1-based optimum (first-order in T,
	// numerical in P) — defined for every profile.
	SemiAnalytic Eval
	// Optimal is the full numerical optimum of the exact formula.
	Optimal Eval
}

// ProfileStudyResult extends the paper ("different speedup profiles",
// Section V): optimal patterns for speedup profiles beyond Amdahl's law,
// on one platform at one scenario, priced by simulation.
type ProfileStudyResult struct {
	Platform string
	Cells    []ProfileCell
}

// DefaultProfiles is the profile set of the study: the paper's Amdahl
// law, Gustafson weak scaling, and an empirical power law. Construction
// goes through the validating constructors so a bad α cannot silently
// produce a decreasing S(P).
func DefaultProfiles(alpha float64) ([]speedup.Profile, error) {
	am, err := speedup.NewAmdahl(alpha)
	if err != nil {
		return nil, err
	}
	gu, err := speedup.NewGustafson(alpha)
	if err != nil {
		return nil, err
	}
	pw9, err := speedup.NewPowerLaw(0.9)
	if err != nil {
		return nil, err
	}
	pw7, err := speedup.NewPowerLaw(0.7)
	if err != nil {
		return nil, err
	}
	return []speedup.Profile{am, gu, pw9, pw7}, nil
}

// ProfileStudy runs the extension experiment: for each profile (nil
// selects DefaultProfiles at DefaultAlpha), compute the semi-analytic and
// fully numerical optima at scenario sc and price both by Monte-Carlo
// simulation.
func ProfileStudy(ctx context.Context, pl platform.Platform, sc costmodel.Scenario, profiles []speedup.Profile, cfg Config) (*ProfileStudyResult, error) {
	cfg = cfg.withDefaults()
	if len(profiles) == 0 {
		var err error
		profiles, err = DefaultProfiles(DefaultAlpha)
		if err != nil {
			return nil, err
		}
	}
	cells := make([]ProfileCell, len(profiles))
	err := parallelFor(ctx, len(profiles), func(ctx context.Context, i int) error {
		prof := profiles[i]
		if err := speedup.Validate(prof); err != nil {
			return err
		}
		label := fmt.Sprintf("profiles/%s/%v/%s", pl.Name, sc, prof.Name())
		m, err := BuildModel(pl, sc, DefaultAlpha, DefaultDowntime)
		if err != nil {
			return err
		}
		m.Profile = prof
		// Cap the search so weak-scaling profiles (whose overhead keeps
		// improving for a long time) stay in a simulable range.
		opts := optimize.PatternOptions{PMax: 1e9}

		sa, err := optimize.SemiAnalyticOptimum(m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		saEval, err := simulateEval(ctx, m, sa.T, sa.P, cfg, label+"/semi-analytic")
		if err != nil {
			return err
		}

		num, err := optimize.OptimalPattern(m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		numEval, err := simulateEval(ctx, m, num.T, num.P, cfg, label+"/numerical")
		if err != nil {
			return err
		}
		cells[i] = ProfileCell{
			Profile:      prof.Name(),
			Scenario:     sc,
			SemiAnalytic: saEval,
			Optimal:      numEval,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ProfileStudyResult{Platform: pl.Name, Cells: cells}, nil
}

// profileColumns render the study; the periods are table-only.
var profileColumns = []column[ProfileCell]{
	{header: "profile", text: func(c ProfileCell) string { return c.Profile }},
	{header: "P* (semi-analytic)", csv: "pstar_semi_analytic", value: func(c ProfileCell) float64 { return c.SemiAnalytic.P }},
	{header: "P* (optimal)", csv: "pstar_optimal", value: func(c ProfileCell) float64 { return c.Optimal.P }},
	{header: "T* (semi-analytic)", value: func(c ProfileCell) float64 { return c.SemiAnalytic.T }},
	{header: "T* (optimal)", value: func(c ProfileCell) float64 { return c.Optimal.T }},
	{header: "H sim (semi-analytic)", csv: "overhead_sim_semi_analytic", value: func(c ProfileCell) float64 { return c.SemiAnalytic.SimulatedH }},
	{header: "H sim (optimal)", csv: "overhead_sim_optimal", value: func(c ProfileCell) float64 { return c.Optimal.SimulatedH }},
}

// Render writes the study as one table.
func (r *ProfileStudyResult) Render(w io.Writer) error {
	return renderTable(w, fmt.Sprintf("Profile study (extension) on %s — %v, D=%gs",
		r.Platform, r.Cells[0].Scenario, DefaultDowntime), profileColumns, r.Cells)
}

// WriteCSV emits the study in long form.
func (r *ProfileStudyResult) WriteCSV(w io.Writer) error {
	return writeColumnsCSV(w, "profile_index", profileColumns, r.Cells)
}
