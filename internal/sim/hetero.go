package sim

import (
	"context"
	"errors"
	"fmt"

	"amdahlyd/internal/core"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/stats"
)

// HeteroGroupRun is one active group's share of a heterogeneous
// simulation: the group's comm-charged model (core.HeteroModel.ActiveModel
// at the run's active count), the pattern it executes and the work
// fraction it was allocated. The optimizer's GroupPlan carries exactly
// these values; the sim layer keeps its own type so it depends only on
// core, like the single-group simulators.
type HeteroGroupRun struct {
	// Model is the group's model including the inter-group comm charge.
	Model core.Model
	// T and P fix the group's pattern.
	T, P float64
	// Fraction is the group's work share x_g ∈ (0, 1].
	Fraction float64
}

// HeteroRunResult aggregates a heterogeneous Monte-Carlo campaign.
type HeteroRunResult struct {
	// Overhead summarizes the per-run makespan overhead
	// max_g x_g·H_g^sim — the heterogeneous counterpart of
	// RunResult.Overhead, directly comparable to the optimizer's combined
	// H = 1/Σ 1/A_g.
	Overhead stats.Summary
	// GroupOverheads summarizes each group's own simulated overhead
	// H_g^sim (per unit of the group's work, before the x_g scaling), in
	// plan order — comparable to the optimizer's per-group A_g.
	GroupOverheads []stats.Summary
	// FailStops, SilentDetections and Recoveries are totals across all
	// runs and groups.
	FailStops        int64
	SilentDetections int64
	Recoveries       int64
	// Config echoes the effective configuration.
	Config RunConfig
}

// SimulateHeteroContext runs the Monte-Carlo campaign for a
// heterogeneous plan on the shared worker pool: each run plays every
// group's pattern stream independently and scores the run by its
// makespan overhead max_g x_g·H_g. Run i draws from the deterministic
// child stream Split(i) and group g within the run from the grandchild
// Split(g), so results are independent of worker count and dispatch
// order, and a group's stream does not shift when another group's plan
// changes.
func SimulateHeteroContext(ctx context.Context, groups []HeteroGroupRun, cfg RunConfig) (HeteroRunResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.Runs < 1 || cfg.Patterns < 1 {
		return HeteroRunResult{}, fmt.Errorf("sim: invalid config %+v", cfg)
	}
	if cfg.Machine || cfg.Dist != nil {
		return HeteroRunResult{}, errors.New(
			"sim: heterogeneous simulation uses the pattern-level simulator (Machine/Dist unsupported)")
	}
	if len(groups) == 0 {
		return HeteroRunResult{}, errors.New("sim: heterogeneous plan with no groups")
	}

	// Per-group simulators and error-free profile overheads, derived once.
	prs := make([]*Protocol, len(groups))
	hOfP := make([]float64, len(groups))
	for g, gr := range groups {
		if !(gr.Fraction > 0 && gr.Fraction <= 1) {
			return HeteroRunResult{}, fmt.Errorf("sim: group %d: work fraction %g outside (0,1]", g, gr.Fraction)
		}
		pr, err := NewProtocol(gr.Model, gr.T, gr.P)
		if err != nil {
			return HeteroRunResult{}, fmt.Errorf("sim: group %d: %w", g, err)
		}
		prs[g] = pr
		hOfP[g] = gr.Model.Profile.Overhead(gr.P)
	}

	master := rng.New(cfg.Seed)
	outs := make([][]PatternStats, cfg.Runs)
	err := ForEachRun(ctx, cfg.Runs, cfg.Workers, func(_ context.Context, i int) error {
		stream := master.Split(uint64(i))
		sts := make([]PatternStats, len(groups))
		for g, pr := range prs {
			st, err := pr.SimulateRun(cfg.Patterns, stream.Split(uint64(g)))
			if err != nil {
				return err
			}
			sts[g] = st
		}
		outs[i] = sts
		return nil
	})
	if err != nil {
		return HeteroRunResult{}, err
	}

	var makespan stats.Welford
	groupW := make([]stats.Welford, len(groups))
	res := HeteroRunResult{Config: cfg}
	for _, sts := range outs {
		runH := 0.0
		for g, st := range sts {
			h := st.Overhead(groups[g].T, hOfP[g])
			groupW[g].Add(h)
			if gh := groups[g].Fraction * h; gh > runH {
				runH = gh
			}
			res.FailStops += st.FailStops
			res.SilentDetections += st.SilentDetections
			res.Recoveries += st.Recoveries
		}
		makespan.Add(runH)
	}
	res.Overhead = makespan.Summarize()
	res.GroupOverheads = make([]stats.Summary, len(groups))
	for g := range groupW {
		res.GroupOverheads[g] = groupW[g].Summarize()
	}
	return res, nil
}
