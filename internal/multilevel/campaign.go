package multilevel

import (
	"context"
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// CampaignConfig parameterizes a two-level Monte-Carlo campaign. The
// zero value plus a Seed and HOfP reproduces the paper's methodology
// (500 independent runs of 500 patterns each), exactly like
// sim.RunConfig for the single-level simulators.
type CampaignConfig struct {
	// Runs is the number of independent simulation runs (default 500).
	Runs int
	// Patterns is the number of two-level patterns per run (default 500).
	Patterns int
	// Seed fixes the campaign's master random stream; run i uses the
	// deterministic child stream Split(i), so results are independent of
	// scheduling and worker count.
	Seed uint64
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// HOfP is the error-free overhead H(P) the per-run elapsed times are
	// scaled by. It must be positive and finite: a NaN or non-positive
	// value would silently turn every summary into NaN.
	HOfP float64
}

// WithDefaults returns the effective configuration (the paper's 500×500
// budget and GOMAXPROCS workers). Exported so callers that key campaigns
// by configuration (the service result cache) normalize exactly the way
// SimulateContext will.
func (c CampaignConfig) WithDefaults() CampaignConfig {
	d := sim.RunConfig{Runs: c.Runs, Patterns: c.Patterns, Workers: c.Workers}.WithDefaults()
	c.Runs, c.Patterns, c.Workers = d.Runs, d.Patterns, d.Workers
	return c
}

// CampaignResult aggregates a two-level Monte-Carlo campaign.
type CampaignResult struct {
	// Overhead summarizes per-run execution overheads
	// H = elapsed/(patterns·K·T) · H(P); its Mean is the two-level
	// counterpart of the single-level "simulated execution overhead".
	Overhead stats.Summary
	// FailStops, SilentDetections, DiskRecoveries and MemRecoveries are
	// totals across runs.
	FailStops        int64
	SilentDetections int64
	DiskRecoveries   int64
	MemRecoveries    int64
	// Config echoes the effective configuration.
	Config CampaignConfig
}

// SimulateContext runs the Monte-Carlo campaign for the simulator's
// two-level pattern on the shared worker pool (sim.ForEachRun): runs
// fan out over at most cfg.Workers goroutines, run i always draws from
// the deterministic child stream Split(i) — so the statistics are
// bit-independent of the worker count — and the first run error (or ctx
// becoming done) cancels outstanding work instead of paying for the
// remaining runs. Two-level campaigns therefore cost the same machinery
// as the single-level ones in internal/sim.
func (s *Simulator) SimulateContext(ctx context.Context, cfg CampaignConfig) (CampaignResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.Runs < 1 || cfg.Patterns < 1 {
		return CampaignResult{}, errors.New("multilevel: need positive runs and patterns")
	}
	// !(x > 0) also rejects NaN: an invalid H(P) would otherwise scale
	// every per-run overhead into NaN and surface as a NaN summary.
	if !(cfg.HOfP > 0) || math.IsInf(cfg.HOfP, 0) {
		return CampaignResult{}, fmt.Errorf("multilevel: H(P) = %g must be positive and finite", cfg.HOfP)
	}

	master := rng.New(cfg.Seed)
	work := float64(s.pattern.K) * s.pattern.T * float64(cfg.Patterns)
	outs := make([]Stats, cfg.Runs)
	err := sim.ForEachRun(ctx, cfg.Runs, cfg.Workers, func(_ context.Context, i int) error {
		r := master.Split(uint64(i))
		st := &outs[i]
		for p := 0; p < cfg.Patterns; p++ {
			s.SimulatePattern(r, st)
		}
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}

	// Accumulate in run-index order: the Welford stream (and therefore
	// the floating-point summary) is identical whatever the dispatch
	// interleaving was.
	var acc stats.Welford
	res := CampaignResult{Config: cfg}
	for i := range outs {
		st := &outs[i]
		acc.Add(st.Elapsed / work * cfg.HOfP)
		res.FailStops += st.FailStops
		res.SilentDetections += st.SilentDetections
		res.DiskRecoveries += st.DiskRecoveries
		res.MemRecoveries += st.MemRecoveries
	}
	res.Overhead = acc.Summarize()
	return res, nil
}

// SimulateModel runs the seeded two-level campaign for PATTERN(T, K) at
// P processors with everything derived from the model: the costs
// (SingleLevelCosts at the in-memory fraction frac), the platform rates
// at P, and H(P), which replaces cfg.HOfP.
func SimulateModel(ctx context.Context, m core.Model, frac float64, pat Pattern, p float64, cfg CampaignConfig) (CampaignResult, error) {
	costs, err := SingleLevelCosts(m, p, frac)
	if err != nil {
		return CampaignResult{}, err
	}
	lf, ls := m.Rates(p)
	s, err := NewSimulator(costs, pat, lf, ls)
	if err != nil {
		return CampaignResult{}, err
	}
	cfg.HOfP = m.Profile.Overhead(p)
	return s.SimulateContext(ctx, cfg)
}
