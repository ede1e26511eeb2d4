// Package baselines implements the comparator algorithms the paper builds
// on or cites as closest related work:
//
//   - Young's first-order optimal checkpointing period [20] and Daly's
//     higher-order refinement [9], both for fail-stop errors only;
//   - fail-stop-only model variants in the spirit of Zheng et al. [22]
//     (reliability-aware speedup with coordinated checkpoint/restart,
//     no silent errors), used to quantify what ignoring silent errors
//     costs under the paper's full model;
//   - an iterative relaxation procedure in the spirit of Jin et al. [14]:
//     freeze the resilience cost at the current processor count, solve
//     the resulting closed form, repeat until the allocation stabilizes.
//
// The exact internals of [22] and [14] are not public artifacts; both are
// reconstructed from their problem statements (fail-stop-only, coordinated
// C/R, Amdahl or perfectly parallel jobs) so the comparisons in the
// experiments exercise genuinely different algorithms, not renamed copies.
package baselines

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/speedup"
)

// YoungPeriod returns Young's classic first-order optimal checkpointing
// period sqrt(2·C·μ) for checkpoint cost c and platform MTBF mtbf [20].
// With no silent errors and a free verification, Theorem 1 degenerates to
// exactly this formula (a property the tests verify).
func YoungPeriod(c, mtbf float64) float64 {
	if !(c > 0) || !(mtbf > 0) {
		return math.NaN()
	}
	return math.Sqrt(2 * c * mtbf)
}

// DalyPeriod returns Daly's higher-order estimate of the optimum
// checkpoint interval [9]:
//
//	T = sqrt(2Cμ)·(1 + (1/3)·sqrt(C/(2μ)) + (1/9)·(C/(2μ))) − C    if C < 2μ
//	T = μ                                                          otherwise
func DalyPeriod(c, mtbf float64) float64 {
	if !(c > 0) || !(mtbf > 0) {
		return math.NaN()
	}
	if c >= 2*mtbf {
		return mtbf
	}
	x := c / (2 * mtbf)
	return math.Sqrt(2*c*mtbf)*(1+math.Sqrt(x)/3+x/9) - c
}

// IgnoreSilent returns a copy of the model in which silent errors are
// dropped entirely (the fail-stop rate is preserved). Running the VC
// protocol tuned with this model against the full error environment
// quantifies the cost of ignoring silent errors, the gap the paper's
// protocol closes.
func IgnoreSilent(m core.Model) core.Model {
	m.LambdaInd *= m.FailStopFrac
	m.FailStopFrac, m.SilentFrac = 1, 0
	return m
}

// YoungDalyPlan is a baseline pattern choice: the processor count is taken
// as given (or from the paper's optimum) and the period from Young's or
// Daly's fail-stop-only formula using C_P + V_P as the "checkpoint cost".
type YoungDalyPlan struct {
	// T is the chosen period.
	T float64
	// TrueOverhead is the expected overhead of that period evaluated
	// under the FULL model (both error sources), i.e. what the plan
	// actually costs on the real platform.
	TrueOverhead float64
	// AssumedOverhead is the overhead the fail-stop-only analysis
	// believes it achieves.
	AssumedOverhead float64
}

// PlanYoung evaluates Young's period at processor count p: the period is
// computed from the fail-stop rate only, then priced under the full model.
func PlanYoung(m core.Model, p float64) (YoungDalyPlan, error) {
	return plan(m, p, YoungPeriod)
}

// PlanDaly is PlanYoung with Daly's higher-order period.
func PlanDaly(m core.Model, p float64) (YoungDalyPlan, error) {
	return plan(m, p, DalyPeriod)
}

func plan(m core.Model, p float64, period func(c, mtbf float64) float64) (YoungDalyPlan, error) {
	if err := m.Validate(); err != nil {
		return YoungDalyPlan{}, err
	}
	if !(p >= 1) || math.IsInf(p, 0) {
		return YoungDalyPlan{}, fmt.Errorf("baselines: invalid processor count P=%g", p)
	}
	lf, _ := m.Rates(p)
	if !(lf > 0) {
		return YoungDalyPlan{}, errors.New("baselines: fail-stop rate is zero; Young/Daly undefined")
	}
	cv := m.Res.CombinedVC(p)
	t := period(cv, 1/lf)
	if math.IsNaN(t) || t <= 0 {
		return YoungDalyPlan{}, fmt.Errorf("baselines: degenerate period %g", t)
	}
	ignore := IgnoreSilent(m)
	return YoungDalyPlan{
		T:               t,
		TrueOverhead:    m.Overhead(t, p),
		AssumedOverhead: ignore.Overhead(t, p),
	}, nil
}

// IterativeRelaxation computes a processor allocation in the spirit of
// Jin et al. [14]: at each step the resilience cost C_P+V_P is frozen at
// the current allocation, the closed-form optimum for a constant cost is
// solved (Theorem 3 for Amdahl profiles, the case-4 stationarity condition
// for perfectly parallel jobs), and the procedure repeats until the
// allocation moves by less than tol (relative). It returns the solution,
// the iteration count, and an error if the procedure does not converge.
//
// For genuinely constant costs it converges in one step to Theorem 3; for
// linearly growing costs it converges to an allocation within a constant
// factor (√2 on the α-term) of Theorem 2 — a bias the experiments surface.
func IterativeRelaxation(m core.Model, tol float64, maxIter int) (core.Solution, int, error) {
	if err := m.Validate(); err != nil {
		return core.Solution{}, 0, err
	}
	if !(tol > 0) {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	fs := m.FailStopFrac/2 + m.SilentFrac
	lam := m.LambdaInd
	if !(lam > 0) || !(fs > 0) {
		return core.Solution{}, 0, errors.New("baselines: relaxation needs positive error rates")
	}

	alpha := -1.0
	switch pr := m.Profile.(type) {
	case speedup.Amdahl:
		alpha = pr.Alpha
	case speedup.PerfectlyParallel:
		alpha = 0
	default:
		return core.Solution{}, 0, fmt.Errorf(
			"baselines: relaxation supports Amdahl or perfectly parallel profiles, have %s",
			m.Profile.Name())
	}

	p := 1.0
	for iter := 1; iter <= maxIter; iter++ {
		d := m.Res.CombinedVC(p)
		if !(d > 0) {
			return core.Solution{}, iter, errors.New("baselines: non-positive frozen cost")
		}
		var next float64
		if alpha > 0 {
			// Theorem 3 closed form with the frozen constant d.
			next = math.Cbrt(1/(d*fs*lam)) * math.Pow((1-alpha)/alpha, 2.0/3)
		} else {
			// Perfectly parallel: minimize 1/P + 2·sqrt(d·fs·λ·P).
			next = math.Cbrt(1 / (d * fs * lam))
		}
		if next < 1 {
			next = 1
		}
		if math.Abs(next-p) <= tol*p {
			t := math.Sqrt(m.Res.CombinedVC(next) / (fs * lam * next))
			return core.Solution{
				T: t, P: next,
				//lint:allow frozenloop executed once, at convergence — the loop exits on this return
				Overhead: m.Overhead(t, next),
				Method:   "iterative-relaxation",
				Class:    m.Res.Classify().Class,
			}, iter, nil
		}
		// Damped update stabilizes the linear-cost case, where the raw
		// map P → d(P) → P' oscillates.
		p = math.Sqrt(p * next)
	}
	return core.Solution{}, maxIter, errors.New("baselines: iterative relaxation did not converge")
}
