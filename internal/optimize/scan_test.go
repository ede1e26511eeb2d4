package optimize

import (
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
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
// infeasible without its rescan) and an optimum where g turns infinite
// between the only feasible grid point and its neighbour
// (optimum-at-overflow-edge, 83% above the reference before gridRefine
// bisected to the edge).
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
