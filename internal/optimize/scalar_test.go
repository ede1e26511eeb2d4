package optimize

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/xmath"
)

func TestBrentMinQuadratic(t *testing.T) {
	f := func(x float64) float64 { return 2*(x-1.5)*(x-1.5) + 7 }
	res := BrentMin(f, -100, 100, 1e-12)
	if !res.Converged {
		t.Error("Brent did not converge")
	}
	if math.Abs(res.X-1.5) > 1e-7 {
		t.Errorf("minimizer = %g, want 1.5", res.X)
	}
	if math.Abs(res.F-7) > 1e-12 {
		t.Errorf("minimum = %g, want 7", res.F)
	}
}

func TestBrentMinReversedBounds(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	res := BrentMin(f, 5, -5, 1e-10)
	if math.Abs(res.X) > 1e-6 {
		t.Errorf("minimizer = %g, want 0", res.X)
	}
}

func TestBrentMinNonSmooth(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 2) }
	res := BrentMin(f, -10, 10, 1e-10)
	if math.Abs(res.X-2) > 1e-6 {
		t.Errorf("|x−2| minimizer = %g", res.X)
	}
}

// Property: for random parabolas, Brent finds the vertex.
func TestMinimizersOnRandomParabolas(t *testing.T) {
	f := func(vRaw, aRaw uint16) bool {
		vertex := float64(vRaw%2000)/100 - 10 // [−10, 10)
		scale := 0.1 + float64(aRaw%100)
		obj := func(x float64) float64 { return scale * (x - vertex) * (x - vertex) }
		return math.Abs(BrentMin(obj, -15, 15, 1e-10).X-vertex) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridRefineMultimodal(t *testing.T) {
	// Two wells; the global one is at x = 8 with depth −2.
	f := func(x float64) float64 {
		return -math.Exp(-(x-2)*(x-2)) - 2*math.Exp(-(x-8)*(x-8))
	}
	res, err := gridRefine(f, 0, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-8) > 1e-4 {
		t.Errorf("global minimizer = %g, want 8", res.X)
	}
}

func TestGridRefineHandlesInfPlateau(t *testing.T) {
	// Objective is +Inf for x > 2 (like an overflowing exponential).
	// BrentMin alone would start on the plateau and stay there; the grid
	// centres its bracket on a finite point.
	f := func(x float64) float64 {
		if x > 2 {
			return math.Inf(1)
		}
		return (x - 1) * (x - 1)
	}
	res, err := gridRefine(f, 0, 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-1) > 1e-4 {
		t.Errorf("minimizer = %g, want 1 despite Inf plateau", res.X)
	}
}

func TestGridRefineLogAxis(t *testing.T) {
	// Minimum of a/x + b·x is at sqrt(a/b); spans decades, so the grid
	// runs in u = log x.
	a, b := 1e6, 1e-6
	want := math.Sqrt(a / b) // 1e6
	f := func(u float64) float64 { x := math.Exp(u); return a/x + b*x }
	res, err := gridRefine(f, 0, math.Log(1e12), 80)
	if err != nil {
		t.Fatal(err)
	}
	if xmath.RelDiff(math.Exp(res.X), want) > 1e-6 {
		t.Errorf("minimizer = %g, want %g", math.Exp(res.X), want)
	}
}

func TestGridRefineErrors(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := gridRefine(f, 0, 1, 2); err == nil {
		t.Error("2 grid points accepted")
	}
	inf := func(float64) float64 { return math.Inf(1) }
	if _, err := gridRefine(inf, 1, 10, 10); err == nil {
		t.Error("all-Inf objective accepted")
	}
	// The bounds are checked by the callers, each in its own coordinates:
	// the scan on P (log axis, so P must be positive), the period search
	// on u = log T.
	s := Scan[struct{}]{PMax: 10, Inner: func(p float64) (Probe[struct{}], int) {
		return Probe[struct{}]{F: p}, 1
	}}
	for _, box := range [][2]float64{{1, 1}, {5, 2}, {0, 1}, {math.NaN(), 2}} {
		if _, err := s.Run(box[0], box[1], 10); !errors.Is(err, ErrNoFeasible) {
			t.Errorf("scan over [%g, %g] returned %v, want ErrNoFeasible", box[0], box[1], err)
		}
	}
	// A period box wholly past the overflow period is rejected without a
	// kernel call.
	fz := heraModel(t, costmodel.Scenario1, 0.1).Freeze(512)
	tOv := fz.OverflowPeriod()
	if res, err := minimizeT(&fz, PatternOptions{TMin: 2 * tOv, TMax: 4 * tOv}); !errors.Is(err, errGridAllInf) || res.Evals != 0 {
		t.Errorf("period box beyond the overflow period returned %v after %d evaluations", err, res.Evals)
	}
}

func TestGridRefineBoundaryMinimum(t *testing.T) {
	// Monotone decreasing objective: the minimum is the right endpoint.
	f := func(x float64) float64 { return -x }
	res, err := gridRefine(f, 0, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-10) > 1e-4 {
		t.Errorf("boundary minimum at %g, want 10", res.X)
	}
}

// TestSeededPolishStartsAtTheVertex pins the seeded start gridRefine
// gives Brent at an interior grid point: on a parabola, its first step
// lands on the vertex, and no step re-evaluates one of the three seeds.
func TestSeededPolishStartsAtTheVertex(t *testing.T) {
	const vertex = 0.3
	parabola := func(x float64) float64 { return 2*(x-vertex)*(x-vertex) + 1 }
	a, x, b := -1.0, 0.0, 1.0
	var probes []float64
	f := func(u float64) float64 {
		probes = append(probes, u)
		return parabola(u)
	}
	res, _, _ := brent(f, seeded(a, b, x, parabola(a), parabola(x), parabola(b)), polishStep.near(parabola(x)))
	if len(probes) == 0 || math.Abs(probes[0]-vertex) > 1e-15 {
		t.Fatalf("first probe at %v, want the vertex %g", probes, vertex)
	}
	for _, u := range probes {
		if u == a || u == x || u == b {
			t.Errorf("probe at seed %g (probes %v)", u, probes)
		}
	}
	if math.Abs(res.X-vertex) > 1e-7 || res.Evals != len(probes) {
		t.Errorf("polish ended at %g after %d evaluations (%d probes), want %g", res.X, res.Evals, len(probes), vertex)
	}
}
