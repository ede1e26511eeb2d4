// Package hetero solves the joint optimization problem of a heterogeneous
// platform: given a topology of groups (per-group failure law, speed
// factor, resilience costs, capacity) coupled by an inter-group
// communication term, choose which groups work, how the divisible load
// splits across them, and the pattern (T_g, P_g) each group runs.
//
// # The model
//
// A job of W units of sequential work is divisible: an active set S of
// groups receives fractions x_g (Σ x_g = 1) and each group g processes its
// share with its own verified-checkpointing pattern PATTERN(T_g, P_g)
// under its own model. With |S| = G active groups, every group's speedup
// profile is charged the inter-group exchange term κ·(G−1) per allocated
// processor (core.HeteroModel.ActiveModel), so its effective overhead
//
//	A_g(G) = min_{T, P ≤ Size_g} H_g(T, P; κ·(G−1))
//
// is one single-group pattern optimization — solved by the existing
// optimize machinery on per-group Frozen kernels, never Model.Overhead in
// an inner loop. Overheads are scale-free (time per unit of sequential
// work), so A_g does not depend on x_g and the min-max makespan
//
//	H(S, x) = max_{g∈S} x_g · A_g
//
// is minimized by equalizing completion times: x_g ∝ 1/A_g, giving the
// harmonic combined overhead H(S) = 1/Σ_{g∈S} 1/A_g. For a fixed active
// count G the best set is therefore the G groups with smallest A_g(G),
// and the optimizer scans G = 1..n — a complete search over all 2^n−1
// active sets at n·n pattern solves.
//
// # Degeneracy
//
// A one-group model with zero comm term takes the exact
// optimize.OptimalPattern path (same options, PMax clamped to the group
// size) and returns its (T*, P*, H) unchanged — bit-identical to the
// classical single-platform answer, pinned by tests.
package hetero

import (
	"errors"
	"math"
	"sort"

	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/sim"
)

// PatternOptions tunes the joint heterogeneous optimization. The
// embedded per-group search box is exactly optimize.PatternOptions; each
// group's PMax is additionally clamped to its capacity.
type PatternOptions struct {
	// PatternOptions bounds every per-group (T, P) solve. PMax defaults
	// to 1e13 and is clamped to min(PMax, group Size) per group.
	optimize.PatternOptions
	// MaxGroups caps the active group count G (0 = no cap beyond the
	// group count itself). The sweep figures use it to pin G.
	MaxGroups int
}

// pMaxDefault mirrors optimize.PatternOptions' default processor bound.
const pMaxDefault = 1e13

// groupOptions derives the per-group search box: the shared options with
// PMax clamped to the group capacity.
func (o PatternOptions) groupOptions(size float64) optimize.PatternOptions {
	po := o.PatternOptions
	if po.PMax == 0 {
		po.PMax = pMaxDefault
	}
	if size < po.PMax {
		po.PMax = size
	}
	return po
}

// GroupPlan is one active group's share of the joint optimum.
type GroupPlan struct {
	// Group is the index into HeteroModel.Groups (= topology order).
	Group int
	// Fraction is the work share x_g ∈ (0, 1].
	Fraction float64
	// T and P are the group's pattern parameters.
	T, P float64
	// GroupOverhead is A_g: the group's effective overhead (including the
	// comm charge of the active count) per unit of its own work.
	GroupOverhead float64
	// AtPBound reports the group's solve stopped at its capacity (or the
	// global PMax) with the overhead still decreasing.
	AtPBound bool
}

// PatternResult is the joint optimum over active set, work split and
// per-group patterns.
type PatternResult struct {
	// Groups lists the active groups' plans in group-index order.
	Groups []GroupPlan
	// Active is the active group count G = len(Groups).
	Active int
	// Overhead is the combined overhead H = 1/Σ 1/A_g (A_0 itself when a
	// single group is active — not the round-tripped reciprocal).
	Overhead float64
	// Evals counts exact-formula evaluations across all per-group solves.
	Evals int
	// Warm reports the result came from a SweepSolver warm-start solve.
	Warm bool
}

// errNoFeasible is returned when no group admits a feasible pattern.
var errNoFeasible = errors.New("hetero: no feasible pattern for any group")

// groupSolve is one group's standalone optimum at a given active count.
type groupSolve struct {
	group int
	res   optimize.PatternResult
	ok    bool
}

// solverFunc abstracts how a per-group pattern optimization is performed:
// the cold path calls optimize.OptimalPattern (bit-identical to the
// single-platform reference), the warm path routes through per-chain
// optimize.SweepSolvers.
type solverFunc func(g, active int, m core.Model, opts optimize.PatternOptions) (optimize.PatternResult, error)

// OptimalPattern solves the joint heterogeneous problem by the complete
// active-count scan described in the package comment. Per-group solves
// are memoized on the effective comm charge, so a zero-comm topology pays
// exactly one solve per group across all G.
func OptimalPattern(hm core.HeteroModel, opts PatternOptions) (PatternResult, error) {
	if err := hm.Validate(); err != nil {
		return PatternResult{}, err
	}
	evals := 0
	cold := func(g, active int, m core.Model, po optimize.PatternOptions) (optimize.PatternResult, error) {
		return optimize.OptimalPattern(m, po)
	}
	res, err := solveScan(hm, opts, memoized(hm, cold), &evals)
	if err != nil {
		return PatternResult{}, err
	}
	res.Evals = evals
	return res, nil
}

// memoized wraps a solver with a per-call cache keyed by (group, comm
// charge): distinct active counts reuse the identical solve whenever the
// effective profile is unchanged (always, when Comm = 0).
func memoized(hm core.HeteroModel, solve solverFunc) solverFunc {
	type key struct {
		group int
		extra float64
	}
	type entry struct {
		res optimize.PatternResult
		err error
	}
	memo := make(map[key]entry, len(hm.Groups)*2)
	return func(g, active int, m core.Model, po optimize.PatternOptions) (optimize.PatternResult, error) {
		k := key{group: g, extra: hm.Comm * float64(active-1)}
		if e, ok := memo[k]; ok {
			return e.res, e.err
		}
		res, err := solve(g, active, m, po)
		memo[k] = entry{res: res, err: err}
		return res, err
	}
}

// solveScan runs the G = 1..maxG scan on any per-group solver. Group
// solves that fail (no feasible pattern in the group's box) exclude the
// group from that active count; an active count with fewer feasible
// groups than G contributes no candidate.
func solveScan(hm core.HeteroModel, opts PatternOptions, solve solverFunc, evals *int) (PatternResult, error) {
	n := len(hm.Groups)
	maxG := n
	if opts.MaxGroups > 0 && opts.MaxGroups < n {
		maxG = opts.MaxGroups
	}
	best := PatternResult{Overhead: math.Inf(1)}
	found := false
	for active := 1; active <= maxG; active++ {
		solves := make([]groupSolve, 0, n)
		for g := 0; g < n; g++ {
			m, err := hm.ActiveModel(g, active)
			if err != nil {
				return PatternResult{}, err
			}
			res, err := solve(g, active, m, opts.groupOptions(hm.Groups[g].Size))
			if err != nil {
				// An infeasible group box is an exclusion, not a failure:
				// the remaining groups may still carry the job.
				continue
			}
			*evals += res.Evals
			solves = append(solves, groupSolve{group: g, res: res, ok: true})
		}
		if len(solves) < active {
			continue
		}
		// The best size-G set maximizes Σ 1/A_g: the G smallest overheads.
		// Ties break on group index (sort.SliceStable over an index-ordered
		// slice), keeping the scan deterministic.
		sort.SliceStable(solves, func(i, j int) bool {
			return solves[i].res.Overhead < solves[j].res.Overhead
		})
		cand := assemble(solves[:active])
		if cand.Overhead < best.Overhead {
			best = cand
			found = true
		}
	}
	if !found {
		return PatternResult{}, errNoFeasible
	}
	return best, nil
}

// assemble combines the selected groups' standalone optima into the joint
// plan: harmonic combined overhead and equalized-completion fractions.
// A single active group passes its overhead through untouched — the
// 1/(1/A) round trip is not bit-exact, and the degenerate case must be.
func assemble(selected []groupSolve) PatternResult {
	if len(selected) == 1 {
		s := selected[0]
		return PatternResult{
			Groups: []GroupPlan{{
				Group:         s.group,
				Fraction:      1,
				T:             s.res.T,
				P:             s.res.P,
				GroupOverhead: s.res.Overhead,
				AtPBound:      s.res.AtPBound,
			}},
			Active:   1,
			Overhead: s.res.Overhead,
		}
	}
	// Deterministic arithmetic order: accumulate in group-index order.
	ordered := make([]groupSolve, len(selected))
	copy(ordered, selected)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].group < ordered[j].group })
	inv := 0.0
	for _, s := range ordered {
		inv += 1 / s.res.Overhead
	}
	h := 1 / inv
	plans := make([]GroupPlan, len(ordered))
	for i, s := range ordered {
		plans[i] = GroupPlan{
			Group:         s.group,
			Fraction:      h / s.res.Overhead,
			T:             s.res.T,
			P:             s.res.P,
			GroupOverhead: s.res.Overhead,
			AtPBound:      s.res.AtPBound,
		}
	}
	return PatternResult{Groups: plans, Active: len(plans), Overhead: h}
}

// GroupRuns lowers a plan to the simulator: each entry's comm-charged
// model at the plan's active count len(plan), with the entry's pattern
// and work fraction.
func GroupRuns(hm core.HeteroModel, plan []GroupPlan) ([]sim.HeteroGroupRun, error) {
	runs := make([]sim.HeteroGroupRun, len(plan))
	for i, gp := range plan {
		m, err := hm.ActiveModel(gp.Group, len(plan))
		if err != nil {
			return nil, err
		}
		runs[i] = sim.HeteroGroupRun{Model: m, T: gp.T, P: gp.P, Fraction: gp.Fraction}
	}
	return runs, nil
}
