package xmath

import (
	"math"
	"testing"
)

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestNeumaierSumCancellation(t *testing.T) {
	// Classic Neumaier test: 1 + 1e100 + 1 − 1e100 = 2, naive sum gives 0.
	var s Sum
	for _, v := range []float64{1, 1e100, 1, -1e100} {
		s.Add(v)
	}
	if got := s.Value(); got != 2 {
		t.Errorf("compensated sum = %g, want 2", got)
	}
}

func TestEqualWithin(t *testing.T) {
	if !EqualWithin(1.0, 1.0+1e-13, 1e-12, 0) {
		t.Error("relative tolerance not honoured")
	}
	if EqualWithin(1.0, 1.1, 1e-3, 0) {
		t.Error("clearly different values compared equal")
	}
	if EqualWithin(math.NaN(), math.NaN(), 1, 1) {
		t.Error("NaN compared equal")
	}
	if !EqualWithin(0, 1e-16, 0, 1e-12) {
		t.Error("absolute tolerance not honoured")
	}
}

func TestRelDiff(t *testing.T) {
	if RelDiff(0, 0) != 0 {
		t.Error("RelDiff(0,0) != 0")
	}
	if got := RelDiff(1, 2); got != 0.5 {
		t.Errorf("RelDiff(1,2) = %g, want 0.5", got)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !EqualWithin(pts[i], want[i], 1e-15, 0) {
			t.Errorf("Linspace[%d] = %g, want %g", i, pts[i], want[i])
		}
	}
}

func TestLogspaceEndpointsExact(t *testing.T) {
	pts := Logspace(1e-12, 1e-8, 9)
	if pts[0] != 1e-12 || pts[len(pts)-1] != 1e-8 {
		t.Errorf("Logspace endpoints %g, %g not exact", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatal("Logspace not strictly increasing")
		}
	}
	// Evenly spaced ratios.
	r := pts[1] / pts[0]
	for i := 2; i < len(pts); i++ {
		if !EqualWithin(pts[i]/pts[i-1], r, 1e-9, 0) {
			t.Error("Logspace ratios not constant")
		}
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linspace with n=1 should panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestLogspacePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Logspace with lo=0 should panic")
		}
	}()
	Logspace(0, 1, 3)
}
