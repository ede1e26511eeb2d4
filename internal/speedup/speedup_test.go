package speedup

import (
	"math"
	"testing"
	"testing/quick"

	"amdahlyd/internal/xmath"
)

func TestAmdahlKnownValues(t *testing.T) {
	a := Amdahl{Alpha: 0.1}
	// S(1) = 1, S(∞) → 10.
	if !xmath.EqualWithin(a.Speedup(1), 1, 1e-12, 0) {
		t.Errorf("S(1) = %g", a.Speedup(1))
	}
	if !xmath.EqualWithin(a.Speedup(1e12), 10, 1e-6, 0) {
		t.Errorf("S(1e12) = %g, want ≈10", a.Speedup(1e12))
	}
	// H(P) = α + (1−α)/P: H(9) = 0.2 for α = 0.1.
	if !xmath.EqualWithin(a.Overhead(9), 0.2, 1e-12, 0) {
		t.Errorf("H(9) = %g, want 0.2", a.Overhead(9))
	}
}

func TestAmdahlAlphaZeroIsLinear(t *testing.T) {
	a := Amdahl{Alpha: 0}
	pp := PerfectlyParallel{}
	for _, p := range []float64{1, 7, 1000, 1e9} {
		if !xmath.EqualWithin(a.Speedup(p), pp.Speedup(p), 1e-12, 0) {
			t.Errorf("α=0 Amdahl differs from PerfectlyParallel at P=%g", p)
		}
	}
}

func TestAmdahlAlphaOneIsSequential(t *testing.T) {
	a := Amdahl{Alpha: 1}
	for _, p := range []float64{1, 100, 1e6} {
		if !xmath.EqualWithin(a.Speedup(p), 1, 1e-12, 0) {
			t.Errorf("α=1 should never speed up, got S(%g)=%g", p, a.Speedup(p))
		}
	}
}

func TestNewAmdahlValidation(t *testing.T) {
	if _, err := NewAmdahl(0.3); err != nil {
		t.Errorf("valid α rejected: %v", err)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewAmdahl(bad); err == nil {
			t.Errorf("α = %g accepted", bad)
		}
	}
}

func TestSubUnitProcessorsClampedToOne(t *testing.T) {
	profiles := []Profile{Amdahl{0.2}, PerfectlyParallel{}, Gustafson{0.2}, PowerLaw{0.8}}
	for _, pr := range profiles {
		if pr.Speedup(0.5) != pr.Speedup(1) {
			t.Errorf("%s: P<1 not clamped", pr.Name())
		}
	}
}

// Property: speedup is non-decreasing in P and overhead is its reciprocal,
// for every profile.
func TestProfileInvariants(t *testing.T) {
	profiles := []Profile{
		Amdahl{0}, Amdahl{0.001}, Amdahl{0.1}, Amdahl{0.9},
		PerfectlyParallel{},
		Gustafson{0.1}, Gustafson{0.5},
		PowerLaw{0.5}, PowerLaw{0.9}, PowerLaw{1},
	}
	f := func(rawP1, rawP2 uint32) bool {
		p1 := 1 + float64(rawP1%1000000)
		p2 := p1 + float64(rawP2%1000000)
		for _, pr := range profiles {
			s1, s2 := pr.Speedup(p1), pr.Speedup(p2)
			if s2+1e-9 < s1 {
				return false
			}
			if math.Abs(s1*pr.Overhead(p1)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateAcceptsAllBuiltins(t *testing.T) {
	for _, pr := range []Profile{
		Amdahl{0.1}, PerfectlyParallel{}, Gustafson{0.3}, PowerLaw{0.7},
	} {
		if err := Validate(pr); err != nil {
			t.Errorf("Validate(%s): %v", pr.Name(), err)
		}
	}
}

type brokenProfile struct{}

func (brokenProfile) Speedup(p float64) float64  { return -p }
func (brokenProfile) Overhead(p float64) float64 { return -1 / p }
func (brokenProfile) Name() string               { return "broken" }

type inconsistentProfile struct{}

func (inconsistentProfile) Speedup(p float64) float64  { return p }
func (inconsistentProfile) Overhead(p float64) float64 { return 1 } // ≠ 1/S
func (inconsistentProfile) Name() string               { return "inconsistent" }

func TestValidateRejectsBroken(t *testing.T) {
	if err := Validate(brokenProfile{}); err == nil {
		t.Error("negative speedup accepted")
	}
	if err := Validate(inconsistentProfile{}); err == nil {
		t.Error("H ≠ 1/S accepted")
	}
}

func TestGustafsonLinearInP(t *testing.T) {
	g := Gustafson{Alpha: 0.25}
	if !xmath.EqualWithin(g.Speedup(100), 0.25+0.75*100, 1e-12, 0) {
		t.Errorf("Gustafson S(100) = %g", g.Speedup(100))
	}
}

func TestPowerLawGammaOneIsLinear(t *testing.T) {
	w := PowerLaw{Gamma: 1}
	for _, p := range []float64{1, 10, 1e6} {
		if !xmath.EqualWithin(w.Speedup(p), p, 1e-12, 0) {
			t.Errorf("γ=1 power law S(%g) = %g", p, w.Speedup(p))
		}
	}
}

func TestNamesAreDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, pr := range []Profile{
		Amdahl{0.1}, Amdahl{0.2}, PerfectlyParallel{}, Gustafson{0.1}, PowerLaw{0.5},
	} {
		if names[pr.Name()] {
			t.Errorf("duplicate profile name %q", pr.Name())
		}
		names[pr.Name()] = true
	}
}
