package hetero

import (
	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
)

// SweepOptions tunes the warm-start batch solver for sweep-shaped
// heterogeneous work (many joint optimizations along a smooth axis — a
// comm-term sweep, a group-size split, a λ axis). The zero value selects
// defaults consistent with optimize.SweepOptions.
type SweepOptions struct {
	// PatternOptions bounds the search exactly as for OptimalPattern.
	PatternOptions
	// Cold disables warm-starting entirely: every cell runs the reference
	// OptimalPattern scan and is bit-identical to a per-cell call.
	Cold bool
}

// SweepSolver solves a sequence of related heterogeneous optimizations by
// warm-starting every per-group pattern solve from the previous cell's
// optimum. Internally it holds one optimize.SweepSolver per (group,
// active-count) pair: along a smooth axis each group's A_g(G) optimum
// drifts slowly, so each chain pays the narrow-bracket solve with the
// standard edge-rejection/full-box-fallback discipline. Warm-starting is
// an accelerator, never a different answer beyond the refinement
// tolerance (pinned by the warm-vs-cold property tests). In Cold mode the
// same chains run optimize's Cold mode, so every cell is bit-identical to
// a per-cell OptimalPattern call.
//
// A solver is stateful and must not be shared between goroutines; run one
// solver per chain. The chains are keyed by (group index, active count),
// so the solver assumes successive cells share a group layout (same group
// count and order) — the shape of every sweep axis in this repo.
type SweepSolver struct {
	opts   SweepOptions
	chains map[chainKey]*optimize.SweepSolver
}

// chainKey identifies one per-group warm chain. The group's clamped
// processor bound is part of the key: a group whose capacity changed
// between cells (a size-split axis) gets a fresh chain — a stale PMax
// baked into a solver would let the chain search outside the new
// capacity, which is a wrong answer, not just a slow one.
type chainKey struct {
	group  int
	active int
	pMax   float64
}

// NewSweepSolver builds a solver for one chain of related cells.
func NewSweepSolver(opts SweepOptions) *SweepSolver {
	return &SweepSolver{
		opts:   opts,
		chains: make(map[chainKey]*optimize.SweepSolver),
	}
}

// Stats returns the solve counters so far, summed over all (group,
// active-count) chains: WarmSolves, ColdSolves and Fallbacks count
// per-group solves, Evals the exact-formula evaluations of every cell.
func (s *SweepSolver) Stats() optimize.SweepStats {
	var st optimize.SweepStats
	for _, c := range s.chains {
		cs := c.Stats()
		st.WarmSolves += cs.WarmSolves
		st.ColdSolves += cs.ColdSolves
		st.Fallbacks += cs.Fallbacks
		st.Evals += cs.Evals
	}
	return st
}

// chain returns (creating on first use) the per-(group, active) chain
// with the group's clamped search box baked in.
func (s *SweepSolver) chain(g, active int, po optimize.PatternOptions) *optimize.SweepSolver {
	k := chainKey{group: g, active: active, pMax: po.PMax}
	sv, ok := s.chains[k]
	if !ok {
		sv = optimize.NewSweepSolver(optimize.SweepOptions{PatternOptions: po, Cold: s.opts.Cold})
		s.chains[k] = sv
	}
	return sv
}

// Observe primes every active group's chain from an externally obtained
// optimum for hm (e.g. a cache hit for the cell), so the chains stay warm
// across cells the solver did not compute itself. Inactive groups'
// chains are left untouched — their next solve falls back to a cold scan,
// which is exactly the conservative behaviour a cache hit warrants.
func (s *SweepSolver) Observe(hm core.HeteroModel, res PatternResult) {
	for _, gp := range res.Groups {
		if gp.Group < 0 || gp.Group >= len(hm.Groups) {
			continue
		}
		m, err := hm.ActiveModel(gp.Group, res.Active)
		if err != nil {
			continue
		}
		po := s.opts.groupOptions(hm.Groups[gp.Group].Size)
		s.chain(gp.Group, res.Active, po).Observe(m, optimize.PatternResult{
			Solution: core.Solution{T: gp.T, P: gp.P, Overhead: gp.GroupOverhead},
			AtPBound: gp.AtPBound,
		})
	}
}

// Solve returns the joint heterogeneous optimum for the next cell of the
// chain. The first cell (and any per-group solve whose warm attempt is
// rejected) pays full-box scans; subsequent cells search only the narrow
// brackets around the previous per-group optima. The result is Warm only
// when every per-group solve of the cell was accepted in its warm
// bracket.
func (s *SweepSolver) Solve(hm core.HeteroModel) (PatternResult, error) {
	if err := hm.Validate(); err != nil {
		return PatternResult{}, err
	}
	warm := true
	res, err := solveScan(hm, s.opts.PatternOptions, func(g, active int, m core.Model, po optimize.PatternOptions) (optimize.PatternResult, error) {
		r, err := s.chain(g, active, po).Solve(m)
		warm = warm && err == nil && r.Warm
		return r, err
	})
	if err != nil {
		return PatternResult{}, err
	}
	res.Warm = warm
	return res, nil
}
