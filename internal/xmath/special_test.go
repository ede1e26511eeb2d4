package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.8413447460685429, 1}, // Φ(1)
		{0.025, -1.959963984540054},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !EqualWithin(got, c.want, 1e-9, 1e-12) {
			t.Errorf("NormalQuantile(%g) = %.12g, want %.12g", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 0/1 should be ∓Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("quantile outside [0,1] should be NaN")
	}
}

// Property: NormalCDF(NormalQuantile(p)) == p across the unit interval.
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		p := (float64(u%99998) + 1) / 100000 // p in (0, 1)
		x := NormalQuantile(p)
		return EqualWithin(NormalCDF(x), p, 1e-10, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTQuantileReferenceValues(t *testing.T) {
	// Reference two-sided 95% and 99% critical values (standard tables).
	cases := []struct {
		conf float64
		nu   int
		want float64
		tol  float64
	}{
		{0.95, 1, 12.7062, 1e-3},
		{0.95, 2, 4.3027, 1e-3},
		{0.95, 5, 2.5706, 5e-3},
		{0.95, 10, 2.2281, 5e-3},
		{0.95, 30, 2.0423, 5e-3},
		{0.99, 10, 3.1693, 1e-2},
		{0.95, 500, 1.9647, 5e-3},
	}
	for _, c := range cases {
		got := StudentTQuantile(c.conf, c.nu)
		if math.Abs(got-c.want)/c.want > c.tol {
			t.Errorf("t(%g, ν=%d) = %g, want %g", c.conf, c.nu, got, c.want)
		}
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	z := NormalQuantile(0.975)
	tq := StudentTQuantile(0.95, 5000)
	if !EqualWithin(tq, z, 1e-3, 0) {
		t.Errorf("t with huge ν = %g, normal = %g", tq, z)
	}
}

func TestStudentTDomainErrors(t *testing.T) {
	for _, bad := range []struct {
		conf float64
		nu   int
	}{{0, 5}, {1, 5}, {0.95, 0}, {-1, 3}} {
		if !math.IsNaN(StudentTQuantile(bad.conf, bad.nu)) {
			t.Errorf("StudentTQuantile(%g, %d) should be NaN", bad.conf, bad.nu)
		}
	}
}

func TestKolmogorovCDFAnchors(t *testing.T) {
	// For large n the Stephens-corrected statistic follows the asymptotic
	// Kolmogorov distribution: K(0.8276) ≈ 0.5, K(1.3581) ≈ 0.95.
	n := 100000
	sn := math.Sqrt(float64(n))
	adj := sn + 0.12 + 0.11/sn
	cases := []struct {
		x, want float64
	}{
		{0.82757, 0.5},
		{1.35810, 0.95},
		{1.62762, 0.99},
	}
	for _, c := range cases {
		got := KolmogorovCDF(c.x/adj, n)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("K(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestKolmogorovCDFEdges(t *testing.T) {
	if KolmogorovCDF(0, 100) != 0 || KolmogorovCDF(-1, 100) != 0 {
		t.Error("non-positive d should give probability 0")
	}
	if !math.IsNaN(KolmogorovCDF(0.5, 0)) {
		t.Error("n = 0 should be NaN")
	}
	if got := KolmogorovCDF(10, 100); got != 1 {
		t.Errorf("huge statistic should saturate at 1, got %g", got)
	}
}

// Property: the Kolmogorov CDF is non-decreasing in d.
func TestKolmogorovMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		d1 := float64(a%1000) / 1000
		d2 := d1 + float64(b%1000)/1000
		return KolmogorovCDF(d1, 500) <= KolmogorovCDF(d2, 500)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
