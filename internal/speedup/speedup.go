// Package speedup models application speedup profiles S(P) and their
// execution overheads H(P) = 1/S(P).
//
// The paper's analysis (Eq. (1)) is for Amdahl's law with sequential
// fraction α: S(P) = 1/(α + (1−α)/P). The perfectly parallel profile
// (α = 0, Section III-D.4) is provided as a distinct type, and Gustafson
// and power-law profiles are included for the "different speedup profiles"
// direction the paper lists as future work (they are exercised by the
// numerical optimizer, not by the closed-form theorems).
//
// P is a float64 everywhere: the optimization problem treats the processor
// count as continuous, exactly as the paper's numerical solution does, and
// integer refinement happens in internal/optimize.
package speedup

import (
	"fmt"
	"math"
)

// Profile describes a speedup model. Implementations must satisfy
// S(P) > 0 for P >= 1 and H(P) = 1/S(P).
type Profile interface {
	// Speedup returns S(P), the factor by which P processors divide the
	// sequential execution time, ignoring failures.
	Speedup(p float64) float64
	// Overhead returns H(P) = 1/S(P), the error-free execution overhead:
	// the time per unit of sequential work.
	Overhead(p float64) float64
	// Name identifies the profile in reports.
	Name() string
}

// Amdahl is the paper's speedup profile (Eq. (1)): a fraction Alpha of the
// work is inherently sequential, the rest is perfectly parallel.
type Amdahl struct {
	// Alpha is the sequential fraction α ∈ [0, 1]. Alpha = 0 degenerates
	// to the perfectly parallel profile; prefer PerfectlyParallel for that
	// case so the case-4 analysis is dispatched correctly.
	Alpha float64
}

// NewAmdahl validates α and returns the profile.
func NewAmdahl(alpha float64) (Amdahl, error) {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return Amdahl{}, fmt.Errorf("speedup: sequential fraction α = %g outside [0,1]", alpha)
	}
	return Amdahl{Alpha: alpha}, nil
}

// Speedup returns 1/(α + (1−α)/P).
func (a Amdahl) Speedup(p float64) float64 { return 1 / a.Overhead(p) }

// Overhead returns H(P) = α + (1−α)/P.
func (a Amdahl) Overhead(p float64) float64 {
	if p < 1 {
		p = 1
	}
	return a.Alpha + (1-a.Alpha)/p
}

// Name implements Profile.
func (a Amdahl) Name() string { return fmt.Sprintf("amdahl(α=%g)", a.Alpha) }

// PerfectlyParallel is the H(P) = 1/P profile of Section III-D.4.
type PerfectlyParallel struct{}

// Speedup returns P.
func (PerfectlyParallel) Speedup(p float64) float64 {
	if p < 1 {
		p = 1
	}
	return p
}

// Overhead returns 1/P.
func (PerfectlyParallel) Overhead(p float64) float64 {
	if p < 1 {
		p = 1
	}
	return 1 / p
}

// Name implements Profile.
func (PerfectlyParallel) Name() string { return "perfectly-parallel" }

// Gustafson models scaled speedup S(P) = α + (1−α)·P (weak scaling):
// the parallel part grows with the machine. Extension beyond the paper.
// Construct via NewGustafson: α outside [0, 1] silently yields a
// decreasing (α > 1) or super-linear (α < 0) S(P).
type Gustafson struct {
	Alpha float64 // sequential fraction of the scaled workload
}

// NewGustafson validates α ∈ [0, 1] and returns the profile.
func NewGustafson(alpha float64) (Gustafson, error) {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return Gustafson{}, fmt.Errorf("speedup: gustafson sequential fraction α = %g outside [0,1]", alpha)
	}
	return Gustafson{Alpha: alpha}, nil
}

// Speedup returns α + (1−α)P.
func (g Gustafson) Speedup(p float64) float64 {
	if p < 1 {
		p = 1
	}
	return g.Alpha + (1-g.Alpha)*p
}

// Overhead returns 1/S(P).
func (g Gustafson) Overhead(p float64) float64 { return 1 / g.Speedup(p) }

// Name implements Profile.
func (g Gustafson) Name() string { return fmt.Sprintf("gustafson(α=%g)", g.Alpha) }

// PowerLaw models sublinear scaling S(P) = P^Gamma with 0 < Gamma <= 1,
// a common empirical fit for communication-bound codes. Extension beyond
// the paper. Construct via NewPowerLaw: Gamma = 0 silently yields a flat
// S(P) = 1 (processors do nothing) and Gamma > 1 super-linear scaling.
type PowerLaw struct {
	Gamma float64
}

// NewPowerLaw validates γ ∈ (0, 1] and returns the profile.
func NewPowerLaw(gamma float64) (PowerLaw, error) {
	if !(gamma > 0) || gamma > 1 || math.IsNaN(gamma) {
		return PowerLaw{}, fmt.Errorf("speedup: power-law exponent γ = %g outside (0,1]", gamma)
	}
	return PowerLaw{Gamma: gamma}, nil
}

// Speedup returns P^γ.
func (w PowerLaw) Speedup(p float64) float64 {
	if p < 1 {
		p = 1
	}
	return math.Pow(p, w.Gamma)
}

// Overhead returns P^−γ.
func (w PowerLaw) Overhead(p float64) float64 { return 1 / w.Speedup(p) }

// Name implements Profile.
func (w PowerLaw) Name() string { return fmt.Sprintf("powerlaw(γ=%g)", w.Gamma) }

// Validate checks basic sanity of any profile over a probe range and
// returns a descriptive error for broken implementations. It is used by
// tests and by the CLI when loading user-defined profiles.
func Validate(pr Profile) error {
	prev := 0.0
	for _, p := range []float64{1, 2, 8, 64, 1024, 1 << 20} {
		s := pr.Speedup(p)
		h := pr.Overhead(p)
		if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
			return fmt.Errorf("speedup: %s gives S(%g) = %g", pr.Name(), p, s)
		}
		if math.Abs(s*h-1) > 1e-9 {
			return fmt.Errorf("speedup: %s has H(%g) ≠ 1/S(%g)", pr.Name(), p, p)
		}
		if !(s+1e-12 >= prev) {
			return fmt.Errorf("speedup: %s is decreasing at P = %g", pr.Name(), p)
		}
		prev = s
	}
	if s1 := pr.Speedup(1); math.Abs(s1-1) > 0.5 {
		return fmt.Errorf("speedup: %s has S(1) = %g, expected ≈1", pr.Name(), s1)
	}
	return nil
}
