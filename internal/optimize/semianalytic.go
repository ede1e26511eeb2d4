package optimize

import (
	"errors"
	"math"

	"amdahlyd/internal/core"
)

// SemiAnalyticOptimum minimizes Theorem 1's first-order overhead curve
//
//	H(T*_P, P) = H(P) · (1 + 2·sqrt((λf_P/2 + λs_P)·(V_P + C_P)))
//
// over the processor count numerically, then returns Theorem 1's period
// at the optimum. This extends the paper's first-order analysis to
// arbitrary speedup profiles (Gustafson, power-law, …) for which no
// closed-form P* exists — the "different speedup profiles" direction of
// the paper's Section V. For Amdahl profiles in the validity regime it
// agrees with Theorems 2 and 3 (a property the tests check).
func SemiAnalyticOptimum(m core.Model, opts PatternOptions) (core.Solution, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return core.Solution{}, err
	}
	if err := m.Validate(); err != nil {
		return core.Solution{}, err
	}
	s := Scan[struct{}]{
		PMin: opts.PMin, PMax: opts.PMax,
		Inner: func(p float64) (Probe[struct{}], int) {
			return Probe[struct{}]{F: m.OverheadAtOptimalPeriod(p)}, 1
		},
	}
	res, err := s.Run(opts.PMin, opts.PMax, GridP)
	if err != nil {
		return core.Solution{}, errors.New("optimize: semi-analytic objective infeasible")
	}
	p := res.P
	t := m.OptimalPeriodFixedP(p)
	if math.IsInf(t, 0) || !(t > 0) {
		return core.Solution{}, errors.New("optimize: degenerate period at semi-analytic optimum")
	}
	return core.Solution{
		T:        t,
		P:        p,
		Overhead: res.F,
		Method:   "semi-analytic",
		Class:    m.Res.Classify().Class,
	}, nil
}
