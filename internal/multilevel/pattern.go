package multilevel

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
)

// CostsFunc derives the two-level cost set at a processor count. The
// joint (T, K, P) optimizer probes many processor counts; the costs —
// like the model's resilience costs — generally depend on P (a larger
// machine checkpoints more memory). InMemoryFraction builds the common
// case from a core model.
type CostsFunc func(p float64) (Costs, error)

// InMemoryFraction is the CostsFunc of the standard derivation: the
// model's checkpoint/recovery at P as the disk level, frac·C_P as the
// in-memory level (SingleLevelCosts at every probed P).
func InMemoryFraction(m core.Model, frac float64) CostsFunc {
	return func(p float64) (Costs, error) {
		return SingleLevelCosts(m, p, frac)
	}
}

// PatternOptions tunes the joint (T, K, P) optimization. The zero value
// selects the same search box as the single-level optimizer.
type PatternOptions struct {
	// PMin and PMax bound the processor search (defaults 1 and 1e13,
	// matching optimize.PatternOptions).
	PMin, PMax float64
	// IntegerP rounds the processor allocation to the better of
	// floor/ceil after the continuous optimization.
	IntegerP bool
}

func (o PatternOptions) withDefaults() PatternOptions {
	if o.PMin == 0 {
		o.PMin = 1
	}
	if o.PMax == 0 {
		o.PMax = optimize.DefaultPMax
	}
	return o
}

func (o PatternOptions) validate() error {
	if !(o.PMax > o.PMin) || o.PMin < 1 || math.IsInf(o.PMax, 1) {
		return fmt.Errorf("multilevel: bad processor bounds [%g, %g]", o.PMin, o.PMax)
	}
	return nil
}

// PatternResult is the joint optimum of the two-level first-order
// overhead H(T, K, P) over segment length, segment count and processor
// allocation.
type PatternResult struct {
	Plan
	// P is the optimal processor allocation.
	P float64
	// AtPBound reports that the optimum sits at PMax: the overhead there
	// is within a relative 1e-12 of the optimum (unbounded-allocation
	// regimes, exactly as in the single-level optimizer).
	AtPBound bool
	// Evals counts inner (T, K) solves — one per distinct probed P.
	Evals int
	// Warm reports that the result was produced by a SweepSolver
	// warm-start solve rather than the full-box scan.
	Warm bool
}

// errNilCosts is shared by every entry point that takes a CostsFunc.
var errNilCosts = errors.New("multilevel: nil CostsFunc")

// validateJoint holds a model to the preconditions of the two-level
// first-order analysis: both error sources present (the separable optima
// divide by each rate) and a non-nil profile via Model.Validate.
func validateJoint(m core.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if !(m.LambdaInd > 0) || !(m.FailStopFrac > 0) || !(m.SilentFrac > 0) {
		return errors.New(
			"multilevel: the two-level analysis needs positive fail-stop and silent rates")
	}
	return nil
}

// solveAtP solves the inner (T, K) problem at a fixed processor count on
// the compiled evaluator: derive the costs and platform rates once,
// then the first-order optimum is closed-form (FirstOrder — the
// T-re-optimized floor/ceil rounding of the separable K*). The hot loop
// never touches Model methods: every P-dependent quantity comes from one
// Freeze plus one CostsFunc call.
func solveAtP(m core.Model, costsFor CostsFunc, p float64) (Plan, error) {
	fz := m.Freeze(p)
	c, err := costsFor(p)
	if err != nil {
		return Plan{}, err
	}
	return FirstOrder(c, fz.LambdaF, fz.LambdaS, fz.ProfileOverhead())
}

// OptimalPattern minimizes the two-level first-order overhead jointly
// over (T, K, P): a log-grid scan over P with Brent refinement (the
// single-level optimizer's outer search, optimize.Scan), each
// probe solving the inner (T, K) problem exactly via the closed-form
// first-order optimum on a per-P compiled evaluator. This answers the
// paper's central question — how many processors should the job use — for
// the two-level protocol of Section V's future work.
func OptimalPattern(m core.Model, costsFor CostsFunc, opts PatternOptions) (PatternResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PatternResult{}, err
	}
	if err := validateJoint(m); err != nil {
		return PatternResult{}, err
	}
	if costsFor == nil {
		return PatternResult{}, errNilCosts
	}
	return scanBox(m, costsFor, opts, opts.PMin, opts.PMax, optimize.GridP)
}

// scanBox runs the shared outer optimize.Scan over [pLo, pHi] on a
// gridP-point log-grid for g(P) = min_{T,K} H(T, K, P), counting one
// evaluation per inner (T, K) solve. The inner solve is closed-form, so
// outer grid points are cheap.
func scanBox(m core.Model, costsFor CostsFunc, opts PatternOptions, pLo, pHi float64, gridP int) (PatternResult, error) {
	var probeErr error // first inner failure, for the all-infeasible diagnostic
	s := optimize.Scan[Pattern]{
		PMin: opts.PMin, PMax: opts.PMax, IntegerP: opts.IntegerP,
		Inner: func(p float64) (optimize.Probe[Pattern], int) {
			plan, err := solveAtP(m, costsFor, p)
			if err != nil && probeErr == nil {
				probeErr = err
			}
			return optimize.Probe[Pattern]{Inner: plan.Pattern, F: plan.PredictedH, Err: err}, 1
		},
	}
	out, err := s.Run(pLo, pHi, gridP)
	if errors.Is(err, optimize.ErrNoFeasible) {
		// A whole-box failure means every probe was infeasible; the first
		// inner error is the actual cause (e.g. an out-of-range in-memory
		// fraction from the CostsFunc), not search-box geometry.
		if probeErr != nil {
			return PatternResult{}, fmt.Errorf("multilevel: no feasible pattern in the search box: %w", probeErr)
		}
		return PatternResult{}, errors.New("multilevel: no feasible pattern in the search box")
	}
	if err != nil {
		return PatternResult{}, err
	}
	return PatternResult{
		Plan:     Plan{Pattern: out.Inner, PredictedH: out.F},
		P:        out.P,
		AtPBound: out.AtBound,
		Evals:    out.Evals,
	}, nil
}
