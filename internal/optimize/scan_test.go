package optimize

import (
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

// referencePattern is OptimalPattern's outer search made dense: g(P), the
// period search's H at P, on a log grid of 30 points per decade of the
// processor box, the best point's bracket polished by Brent at refineTol
// (the scan stops at √ε), then the scan's own bound test and integer
// rounding. P is e^u clamped into the box, as in the scan. It returns P,
// H and whether H at PMax is within boundSlack of the optimum; H is +Inf
// when no probe is feasible or the rounded P is not.
func referencePattern(m core.Model, opts PatternOptions) (p, h float64, atBound bool) {
	memo := map[float64]float64{}
	g := func(p float64) float64 {
		v, ok := memo[p]
		if !ok {
			fz := m.Freeze(p)
			res, err := minimizeT(&fz, opts)
			v = res.F
			if err != nil {
				v = math.Inf(1)
			}
			memo[p] = v
		}
		return v
	}
	uLo, uHi := math.Log(opts.PMin), math.Log(opts.PMax)
	at := func(u float64) float64 { return math.Min(math.Max(math.Exp(u), opts.PMin), opts.PMax) }
	n := max(3, int(math.Ceil(30*(uHi-uLo)/math.Ln10))+1)
	gridU := func(i int) float64 {
		if i == n-1 {
			return uHi
		}
		return uLo + float64(i)*(uHi-uLo)/float64(n-1)
	}
	best, bestF := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if v := g(at(gridU(i))); v < bestF {
			best, bestF = i, v
		}
	}
	if math.IsInf(bestF, 1) {
		return 0, bestF, false
	}
	ref := BrentMin(func(u float64) float64 { return g(at(u)) },
		gridU(max(best-1, 0)), gridU(min(best+1, n-1)), refineTol)
	p, h = at(ref.X), ref.F
	if bestF < h {
		p, h = at(gridU(best)), bestF
	}
	atBound = g(at(uHi)) <= h*(1+boundSlack)
	if opts.IntegerP {
		p = betterInteger(g, p, opts.PMin, opts.PMax)
		h = g(p)
	}
	return p, h, atBound
}

// FuzzOptimalPattern checks OptimalPattern's coarse outer scan against
// referencePattern over fuzzed models (a Table II platform and scenario
// with any sequential fraction, error rate and downtime), processor and
// period boxes and IntegerP. Inputs the API rejects must fail
// validation; accepted ones must agree with the reference on the error
// status and AtPBound and end at most 1e-12 (relative) above its H, with
// P inside the box, and integral under IntegerP unless it is a
// fractional bound of the box (the rounding clips floor and ceil into
// it). The seed corpus (testdata/fuzz/FuzzOptimalPattern) holds the
// period-box-edge model where a 12-point grid stopped 9% short of P*,
// PMax 1e300, the processor boxes [1e6, 1e7] and [1, 2], TMin 1e5, two
// optima at PMax that e^{log PMax} put outside the box or off an
// integer, a feasible island between two grid points
// (feasible-island-between-grid-points, which the scan reported
// infeasible without its rescan), an optimum where g turns infinite
// between the only feasible grid point and its neighbour
// (optimum-at-overflow-edge, 83% above the reference before gridRefine
// bisected to the edge) and two corners, where the period search reaches
// its box bound: corner-at-tmin-flat-side, where g falls by 1e-11 over a
// unit of u before T* reaches TMin and a polish seeded from the grid
// stopped 4.1e-12 above the corner (fixed by its golden restart), and
// corner-at-tmax, a V-shaped corner at TMax that the √ε polish left 2e-9
// above (fixed by sharpen); and smooth-minimum-near-overflow, a smooth
// minimum at H ≈ 5.7e307, where H carries ~1e-13 of rounding and a √ε
// polish stopped 1.7e-12 above it (fixed by widening the polish step
// above noisyH).
func FuzzOptimalPattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, plat, sc uint8, alpha, lambda, downtime, pMin, pMax, tMin, tMax float64, integerP bool) {
		pl := platform.All()[int(plat)%4]
		m, err := periodModel(pl, costmodel.Scenario(1+int(sc)%6), alpha, lambda, downtime)
		if err != nil {
			return
		}
		box := PatternOptions{PMin: pMin, PMax: pMax, TMin: tMin, TMax: tMax, IntegerP: integerP}
		res, err := OptimalPattern(m, box)
		opts := box.withDefaults()
		if opts.validate() != nil {
			if err == nil {
				t.Fatalf("OptimalPattern accepted the box P [%g, %g], T [%g, %g]", pMin, pMax, tMin, tMax)
			}
			return
		}
		refP, refH, refBound := referencePattern(m, opts)
		label := func() string {
			return pl.Name + "/" + costmodel.Scenario(1+int(sc)%6).String()
		}
		if (err != nil) != math.IsInf(refH, 1) {
			t.Fatalf("%s α=%g λ=%g D=%g %+v: error %v, reference H = %g at P = %g",
				label(), alpha, lambda, downtime, opts, err, refH, refP)
		}
		if err != nil {
			return
		}
		switch {
		case math.IsNaN(res.Overhead) || res.Overhead > refH*(1+1e-12):
			t.Fatalf("%s α=%g λ=%g D=%g %+v: H = %.17g at P = %g, %.2g above the dense reference %.17g at P = %g",
				label(), alpha, lambda, downtime, opts, res.Overhead, res.P, (res.Overhead-refH)/refH, refH, refP)
		case res.AtPBound != refBound:
			t.Fatalf("%s α=%g λ=%g D=%g %+v: AtPBound %t, reference %t (H %.17g against %.17g)",
				label(), alpha, lambda, downtime, opts, res.AtPBound, refBound, res.Overhead, refH)
		case !(res.P >= opts.PMin && res.P <= opts.PMax):
			t.Fatalf("%s α=%g λ=%g D=%g: P = %.17g outside [%g, %g]", label(), alpha, lambda, downtime, res.P, opts.PMin, opts.PMax)
		case opts.IntegerP && res.P != math.Floor(res.P) && res.P != opts.PMin && res.P != opts.PMax:
			t.Fatalf("%s α=%g λ=%g D=%g %+v: IntegerP returned P = %.17g", label(), alpha, lambda, downtime, opts, res.P)
		}
	})
}

// TestColdScanEvals pins the mean kernel calls of a cold default-box
// OptimalPattern over the 24 Table II × Table III models at α = 0.1,
// D = 3,600 s. Counts do not depend on the host; a 96-point grid
// polished to a relative 1e-10 (352.5) fails the ceiling.
func TestColdScanEvals(t *testing.T) {
	total, n := 0, 0
	for _, pl := range platform.All() {
		for _, sc := range costmodel.AllScenarios {
			m, err := periodModel(pl, sc, 0.1, pl.LambdaInd, 3600)
			if err != nil {
				t.Fatal(err)
			}
			res, err := OptimalPattern(m, PatternOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", pl.Name, sc, err)
			}
			total += res.Evals
			n++
		}
	}
	mean := float64(total) / float64(n)
	t.Logf("mean evaluations per cold solve: %.1f", mean)
	if mean > 100 {
		t.Errorf("mean evaluations per cold solve %.1f, want at most 100", mean)
	}
}

// TestScanMemoSpillsPastItsArray drives a scan past its stack memo: a
// 3,000-point grid over [1, 1e6] plus its polish and integer rounding,
// with thousands of distinct P. Every P must reach the inner solve once,
// revisits included (the polish's bracket ends are grid points, the
// final probe the polished one), and Evals must count each P once.
func TestScanMemoSpillsPastItsArray(t *testing.T) {
	calls := map[float64]int{}
	s := Scan[int]{PMin: 1, PMax: 1e6, IntegerP: true, Inner: func(p float64) (Probe[int], int) {
		calls[p]++
		u := math.Log(p) - math.Log(3e4)
		return Probe[int]{Inner: calls[p], F: 1 + u*u}, 2
	}}
	res, err := s.Run(1, 1e6, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) <= 2*memoCap {
		t.Fatalf("%d distinct probes, want well past the %d-entry array", len(calls), memoCap)
	}
	for p, n := range calls {
		if n != 1 {
			t.Errorf("P = %.17g solved %d times", p, n)
		}
	}
	if res.Evals != 2*len(calls) {
		t.Errorf("Evals = %d, want 2 per distinct P (%d)", res.Evals, 2*len(calls))
	}
	if res.Inner != 1 || math.Abs(res.P-3e4) > 1 {
		t.Errorf("scan answered P = %g from solve %d, want 30000 from the first", res.P, res.Inner)
	}
}

// TestEdgeOptimumCost pins what an optimum on the edge of the scanned
// range costs: four Hera, scenario 1, D = 3,600 s models whose optimum is
// P = 1. A polish whose tolerance was relative to u alone spent 171–255
// kernel calls on them (interior optima cost 55–96): it chased a
// tolerance that collapsed toward 1e-21 as u = log P → 0, and walked to
// the end by golden-section steps. Each must answer P = 1 exactly in at
// most 40 calls, with H within 1e-14 of the value that polish found and
// T within 1e-14 of the period search at P = 1 (two of its answers
// landed 1e-11 and 1e-13 inside P = 1, where T* differs by more).
func TestEdgeOptimumCost(t *testing.T) {
	pl := platform.Hera()
	for _, c := range []struct{ alpha, lambda, t, h float64 }{
		{1, 1e-9, 133968.1838202065, 1.0002394495749263},
		{1, 1e-6, 4228.6742657546338, 1.0083633579762032},
		{1, 1e-4, 415.71146832934585, 1.1627266369446434},
		{0.9, 1e-4, 415.71146832934585, 1.1627266369446434},
	} {
		m, err := periodModel(pl, costmodel.Scenario1, c.alpha, c.lambda, 3600)
		if err != nil {
			t.Fatal(err)
		}
		res, err := OptimalPattern(m, PatternOptions{})
		switch {
		case err != nil:
			t.Errorf("α=%g λ=%g: %v", c.alpha, c.lambda, err)
		case res.P != 1 || xmath.RelDiff(res.T, c.t) > 1e-14 || xmath.RelDiff(res.Overhead, c.h) > 1e-14:
			t.Errorf("α=%g λ=%g: P=%.17g T=%.17g H=%.17g, want P=1 T=%.17g H=%.17g",
				c.alpha, c.lambda, res.P, res.T, res.Overhead, c.t, c.h)
		case res.Evals > 40:
			t.Errorf("α=%g λ=%g: %d kernel calls, want at most 40", c.alpha, c.lambda, res.Evals)
		}
	}
}
