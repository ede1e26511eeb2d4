package failures

import (
	"fmt"
	"math"

	"amdahlyd/internal/rng"
	"amdahlyd/internal/xmath"
)

// Distribution is an inter-arrival time law for one error source: the
// generalization of the hard-coded exponential that Section IV-A's
// simulator assumes. Real SCR-style platform logs are famously Weibull
// with shape < 1 (decreasing hazard: failures cluster), so the robustness
// of the exponential-optimal (T*, P*) under non-memoryless arrivals is
// the natural stress test of the Young/Daly-type formulas.
//
// Implementations are calibrated to a target MTBF so that rates stay
// comparable across laws: every distribution below can be constructed to
// have mean exactly 1/λ_ind, which keeps the platform-level pressure
// P·λ_ind fixed while the higher moments vary.
//
// A Distribution must be usable as a value (the simulators copy it) and
// must be safe for concurrent Sample calls on distinct rng streams.
type Distribution interface {
	// Sample draws one inter-arrival time using r.
	Sample(r *rng.Rand) float64
	// Mean returns the expected inter-arrival time (the MTBF).
	Mean() float64
	// CDF evaluates the cumulative distribution at x, the oracle the KS
	// goodness-of-fit tests run against.
	CDF(x float64) float64
	// Name identifies the law in reports and CLIs.
	Name() string
}

// Exponential is the memoryless law of the paper's model: the only
// Distribution for which the superposition of P per-processor sources is
// again of the same family (rate P·λ), and the one every fast path keeps
// bit-identical.
type Exponential struct {
	// Rate is λ, the arrival rate (1/s).
	Rate float64
}

// NewExponential validates the rate and returns the law.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("failures: exponential rate %g must be positive and finite", rate)
	}
	return Exponential{Rate: rate}, nil
}

// Sample draws −ln(U)/λ — the exact call the pre-Distribution trace
// generator made, so exponential traces are bit-identical across the
// refactor.
func (e Exponential) Sample(r *rng.Rand) float64 { return r.Exp(e.Rate) }

// Mean returns 1/λ.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// CDF returns 1 − e^{−λx}.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Name implements Distribution.
func (e Exponential) Name() string { return fmt.Sprintf("exponential(λ=%g)", e.Rate) }

// Weibull is the classic fit for HPC failure logs (Schroeder & Gibson):
// shape k < 1 gives a decreasing hazard — long quiet stretches punctuated
// by bursts — which is exactly the regime where memoryless tuning is
// questioned. Shape 1 degenerates to Exponential(1/Scale) on the same
// sampling path.
type Weibull struct {
	// Shape is k > 0; Scale is λ > 0 (seconds).
	Shape, Scale float64
}

// NewWeibullMTBF returns the Weibull law with the given shape whose mean
// is exactly the target MTBF: scale = MTBF / Γ(1 + 1/k). The shape is
// bounded to [0.1, 10]: platform-log fits live in [0.4, 1], and far
// outside that range the draws degenerate (underflow to zero /
// overflow), which can stall trace generation and livelock the
// event-driven simulator.
func NewWeibullMTBF(shape, mtbf float64) (Weibull, error) {
	if !(shape >= 0.1) || shape > 10 {
		return Weibull{}, fmt.Errorf("failures: weibull shape %g outside [0.1, 10]", shape)
	}
	if !(mtbf > 0) || math.IsInf(mtbf, 0) {
		return Weibull{}, fmt.Errorf("failures: weibull MTBF %g must be positive and finite", mtbf)
	}
	// Γ(1+1/k) overflows for extreme shapes (k below ~0.006), collapsing
	// the calibrated scale to zero; reject rather than panic on Sample.
	scale := mtbf / math.Gamma(1+1/shape)
	if !(scale > 0) || math.IsInf(scale, 0) {
		return Weibull{}, fmt.Errorf("failures: weibull shape %g yields unusable scale %g at MTBF %g",
			shape, scale, mtbf)
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// Sample draws Scale·(−ln U)^{1/k} by inversion: one uniform per draw,
// the same consumption as the exponential sampler.
func (w Weibull) Sample(r *rng.Rand) float64 { return r.Weibull(w.Shape, w.Scale) }

// Mean returns Scale·Γ(1 + 1/k).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// CDF returns 1 − e^{−(x/λ)^k}.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Name implements Distribution.
func (w Weibull) Name() string { return fmt.Sprintf("weibull(k=%g, λ=%.6g)", w.Shape, w.Scale) }

// LogNormal models heavy-tailed inter-arrivals whose logarithm is
// Normal(Mu, Sigma); larger Sigma means heavier clustering at both ends.
type LogNormal struct {
	Mu, Sigma float64
}

// NewLogNormalMTBF returns the log-normal law with the given log-space
// standard deviation whose mean is exactly the target MTBF:
// μ = ln(MTBF) − σ²/2. Sigma is bounded to (0, 4]: beyond that the
// calibrated law is so heavy-tailed that nearly every draw underflows
// toward zero (the mean lives in a tail a finite trace never samples),
// stalling generation and exploding finite-window event counts.
func NewLogNormalMTBF(sigma, mtbf float64) (LogNormal, error) {
	if !(sigma > 0) || sigma > 4 {
		return LogNormal{}, fmt.Errorf("failures: lognormal sigma %g outside (0, 4]", sigma)
	}
	if !(mtbf > 0) || math.IsInf(mtbf, 0) {
		return LogNormal{}, fmt.Errorf("failures: lognormal MTBF %g must be positive and finite", mtbf)
	}
	mu := math.Log(mtbf) - sigma*sigma/2
	if math.IsInf(mu, 0) {
		return LogNormal{}, fmt.Errorf("failures: lognormal sigma %g yields unusable μ at MTBF %g",
			sigma, mtbf)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws e^{μ + σZ}.
func (l LogNormal) Sample(r *rng.Rand) float64 { return r.LogNormal(l.Mu, l.Sigma) }

// Mean returns e^{μ + σ²/2}.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// CDF returns Φ((ln x − μ)/σ).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return xmath.NormalCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Name implements Distribution.
func (l LogNormal) Name() string { return fmt.Sprintf("lognormal(μ=%.6g, σ=%g)", l.Mu, l.Sigma) }

// Gamma interpolates between the bursty (shape < 1) and the regular
// (shape > 1) regimes; shape 1 is exponential in distribution (though not
// on the same sampling path — Gamma uses rejection sampling).
type Gamma struct {
	// Shape is k > 0; Scale is θ > 0 (seconds).
	Shape, Scale float64
}

// NewGammaMTBF returns the Gamma law with the given shape whose mean is
// exactly the target MTBF: scale = MTBF/k. The shape is bounded to
// [0.1, 1000] for the same degeneracy reasons as the Weibull bound.
func NewGammaMTBF(shape, mtbf float64) (Gamma, error) {
	if !(shape >= 0.1) || shape > 1000 {
		return Gamma{}, fmt.Errorf("failures: gamma shape %g outside [0.1, 1000]", shape)
	}
	if !(mtbf > 0) || math.IsInf(mtbf, 0) {
		return Gamma{}, fmt.Errorf("failures: gamma MTBF %g must be positive and finite", mtbf)
	}
	scale := mtbf / shape
	if !(scale > 0) || math.IsInf(scale, 0) {
		return Gamma{}, fmt.Errorf("failures: gamma shape %g yields unusable scale %g at MTBF %g",
			shape, scale, mtbf)
	}
	return Gamma{Shape: shape, Scale: scale}, nil
}

// Sample draws by Marsaglia–Tsang.
func (g Gamma) Sample(r *rng.Rand) float64 { return r.Gamma(g.Shape, g.Scale) }

// Mean returns k·θ.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// CDF returns the regularized lower incomplete gamma P(k, x/θ).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return xmath.RegularizedGammaP(g.Shape, x/g.Scale)
}

// Name implements Distribution.
func (g Gamma) Name() string { return fmt.Sprintf("gamma(k=%g, θ=%.6g)", g.Shape, g.Scale) }

// CacheKey returns a canonical identity token for a distribution,
// following the same rules as core.Model.CacheKey: the four built-in
// laws are keyed structurally with exact hexadecimal parameters
// (xmath.FloatKey, the shared canonical encoding), a custom law may
// implement interface{ CacheKey() string }, and anything else falls
// back to its display Name (safe only when Name is injective). A nil
// distribution — the exponential fast path of the simulators — keys as
// "exp-fast".
func CacheKey(dist Distribution) string {
	switch d := dist.(type) {
	case nil:
		return "exp-fast"
	case Exponential:
		return "exp:" + xmath.FloatKey(d.Rate)
	case Weibull:
		return "weibull:" + xmath.FloatKey(d.Shape) + ":" + xmath.FloatKey(d.Scale)
	case LogNormal:
		return "lognormal:" + xmath.FloatKey(d.Mu) + ":" + xmath.FloatKey(d.Sigma)
	case Gamma:
		return "gamma:" + xmath.FloatKey(d.Shape) + ":" + xmath.FloatKey(d.Scale)
	}
	if k, ok := dist.(interface{ CacheKey() string }); ok {
		return "custom:" + k.CacheKey()
	}
	return "named:" + dist.Name()
}

// ValidateMean rejects a distribution whose mean is non-positive,
// non-finite or NaN — the gate for a consumer that derives a rate or an
// error-pressure bound from 1/mean (the machine simulator).
func ValidateMean(dist Distribution) error {
	mean := dist.Mean()
	if !(mean > 0) || math.IsInf(mean, 0) {
		return fmt.Errorf("failures: distribution %s has invalid mean %g", dist.Name(), mean)
	}
	return nil
}

// IsExponentialName reports whether a CLI-style distribution name
// denotes the exponential law ("" defaults to it). The exponential is
// the only shapeless law, so CLIs use this single predicate to pair
// -dist with -shape without duplicating the alias set.
func IsExponentialName(name string) bool {
	return name == "exponential" || name == "exp" || name == ""
}

// ParseDistribution builds a Distribution from a CLI-style name, a shape
// parameter and the per-processor error rate λ_ind. The shape parameter
// is the Weibull shape k, the Gamma shape k, or the log-normal σ
// (ignored for "exponential"). Non-exponential laws are calibrated so
// their mean is the exponential's MTBF 1/λ_ind.
//
// "exponential" carries the rate through verbatim — not via a double
// reciprocal — so the default CLI path samples bit-identically to the
// historical generator.
func ParseDistribution(name string, shape, rate float64) (Distribution, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("failures: rate %g must be positive and finite", rate)
	}
	if IsExponentialName(name) {
		return NewExponential(rate)
	}
	switch name {
	case "weibull":
		return NewWeibullMTBF(shape, 1/rate)
	case "lognormal":
		return NewLogNormalMTBF(shape, 1/rate)
	case "gamma":
		return NewGammaMTBF(shape, 1/rate)
	default:
		return nil, fmt.Errorf("failures: unknown distribution %q (want exponential, weibull, lognormal or gamma)", name)
	}
}
