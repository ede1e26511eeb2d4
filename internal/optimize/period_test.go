package optimize

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// The inner period search follows the sign of H′, which is sound only
// because H(T) has one minimum in u = log T. These tests check that
// landscape and the search against a dense reference.

// referenceGrid is the resolution of the dense reference search and of
// the landscape scan.
const referenceGrid = 2000

// periodModel builds the model of a Table II platform at scenario sc,
// sequential fraction alpha (0 selects the perfectly parallel profile),
// downtime d and individual error rate lambda.
func periodModel(pl platform.Platform, sc costmodel.Scenario, alpha, lambda, d float64) (core.Model, error) {
	res, err := pl.Resilience(sc, d)
	if err != nil {
		return core.Model{}, err
	}
	var profile speedup.Profile = speedup.PerfectlyParallel{}
	if alpha != 0 {
		am, err := speedup.NewAmdahl(alpha)
		if err != nil {
			return core.Model{}, err
		}
		profile = am
	}
	m := core.Model{
		LambdaInd:    lambda,
		FailStopFrac: pl.FailStopFraction,
		SilentFrac:   pl.SilentFraction,
		Res:          res,
		Profile:      profile,
	}
	return m, m.Validate()
}

// periodVerdict says how far checkPeriodSearch could check a search.
type periodVerdict int

const (
	// allInf: the dense grid is +Inf everywhere and the search failed.
	allInf periodVerdict = iota
	// checked: the search ended at most 1e-12 above the reference's H.
	checked
	// nearOverflow: checked as fully, but the minimum lies within e^Δ of
	// the float64 range (Δ half the clipped box in u), where H is finite
	// only in a window that a coarse grid can miss and the dense one may
	// miss too (then the search's answer is re-evaluated instead).
	nearOverflow
)

// checkPeriodSearch scans the overhead on a dense u grid over the whole
// period box, at e^u clamped into the box as the search clamps its T
// (e^{log TMin} can round below TMin, where a steep H reads lower than
// anywhere inside: corpus entry box-edge-rounds-outside), then checks
// (a) that its finite values form one interval with no second local
// minimum beyond a 1e-12 relative rounding slack, and (b) that minimizeT
// agrees on the error status with the dense grid-plus-Brent reference
// and, when both succeed, ends no more than 1e-12 relative above its H,
// with T inside the box. Ending below the
// reference is no miss: on a flat minimum the reference's own Brent
// polish can stop short, because its last probes, a relative 1e-10
// apart in u, cannot resolve the slope under the kernel's rounding
// (corpus entry reference-stops-short: 2.9e-11 above the search). A
// finite answer where the dense grid is +Inf everywhere is a minimum
// whose window falls between grid points: it must re-evaluate to the
// same H at its T (the corpus entries near-overflow-*).
func checkPeriodSearch(fz *core.Frozen, opts PatternOptions, vals []float64) (periodVerdict, error) {
	const slack = 1e-12
	uLo, uHi := math.Log(opts.TMin), math.Log(opts.TMax)
	step := (uHi - uLo) / float64(len(vals)-1)
	gridU := func(i int) float64 {
		if i == len(vals)-1 {
			return uHi
		}
		return uLo + float64(i)*step
	}
	overheadLog := func(u float64) float64 {
		return fz.Overhead(math.Min(math.Max(math.Exp(u), opts.TMin), opts.TMax))
	}
	best, prev, rising, ended := -1, 0.0, false, false
	for i := range vals {
		v := overheadLog(gridU(i))
		vals[i] = v
		switch {
		case math.IsNaN(v):
			return allInf, fmt.Errorf("overhead at u = %g is NaN", gridU(i))
		case math.IsInf(v, 1):
			ended = best >= 0
			continue
		case ended:
			return checked, fmt.Errorf("finite again at T = %g after a +Inf gap", math.Exp(gridU(i)))
		case best >= 0 && rising && v < prev*(1-slack):
			return checked, fmt.Errorf("second local minimum: H falls again to %.17g at T = %g", v, math.Exp(gridU(i)))
		case best >= 0 && v > prev*(1+slack):
			rising = true
		}
		if best < 0 || v < vals[best] {
			best = i
		}
		prev = v
	}

	res, err := minimizeT(fz, opts)
	if best < 0 {
		if err != nil {
			return allInf, nil
		}
		if h := fz.Overhead(res.X); math.IsInf(h, 0) || math.IsNaN(h) || h != res.F || !(res.X >= opts.TMin && res.X <= opts.TMax) {
			return nearOverflow, fmt.Errorf("search found H = %g at T = %g where the dense grid is +Inf, and Overhead(T) = %g",
				res.F, res.X, h)
		}
		return nearOverflow, nil
	}
	ref := BrentMin(overheadLog, gridU(max(best-1, 0)), gridU(min(best+1, len(vals)-1)), refineTol)
	if vals[best] < ref.F {
		ref.F = vals[best]
	}
	if best+1 < len(vals) && math.IsInf(vals[best+1], 1) {
		// H may still fall where E overflows (a downtime near the float64
		// range), and Brent stops short of such an edge: bisect the grid
		// cell on finiteness down to adjacent floats (corpus entry
		// overflow-edge-coastal-s6-huge-downtime).
		a, b := gridU(best), gridU(best+1)
		for m := a + (b-a)/2; m > a && m < b; m = a + (b-a)/2 {
			if v := overheadLog(m); math.IsInf(v, 1) {
				b = m
			} else {
				a, ref.F = m, math.Min(ref.F, v)
			}
		}
	}
	if err != nil {
		return checked, fmt.Errorf("search failed (%v) where the dense grid reaches H = %g", err, ref.F)
	}
	if math.IsNaN(res.F) || math.IsNaN(res.X) {
		return checked, fmt.Errorf("search returned NaN: T = %g, H = %g", res.X, res.F)
	}
	if !(res.X >= opts.TMin && res.X <= opts.TMax) {
		return checked, fmt.Errorf("T = %g outside the box [%g, %g]", res.X, opts.TMin, opts.TMax)
	}
	if res.F > ref.F*(1+slack) {
		return checked, fmt.Errorf("search ends at H = %.17g (T = %g), %.2g above the dense reference %.17g",
			res.F, res.X, (res.F-ref.F)/ref.F, ref.F)
	}
	// E(t) ≤ E(t*) for t ≤ t*, so E(t)/t ≤ E(t*)/t*·e^{u*−u} stays finite
	// over a length Δ of u below u* whenever E(t*)/t* ≤ MaxFloat·e^{−Δ}
	// (the kernel forms E/t before scaling by H(P)): only a minimum
	// closer to the float64 range can have a finite window narrower
	// than a 3-point grid on the clipped box.
	delta := (math.Log(math.Min(opts.TMax, fz.OverflowPeriod())) - uLo) / 2
	if ref.F/fz.ProfileOverhead() >= math.MaxFloat64*math.Exp(-delta) {
		return nearOverflow, nil
	}
	return checked, nil
}

// TestPeriodSearchMatchesDenseReference runs checkPeriodSearch over the
// four Table II platforms × six scenarios × five sequential fractions ×
// error rates from 0.01 to 1000 times the platform's own × P in whole
// decades from 1 to 1e13, on the default period box.
func TestPeriodSearchMatchesDenseReference(t *testing.T) {
	opts := PatternOptions{}.withDefaults()
	vals := make([]float64, referenceGrid)
	var verdicts [3]int
	for _, pl := range platform.All() {
		for sc := costmodel.Scenario1; sc <= costmodel.Scenario6; sc++ {
			for _, alpha := range []float64{0, 1e-4, 0.01, 0.1, 0.5} {
				for _, k := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
					m, err := periodModel(pl, sc, alpha, k*pl.LambdaInd, 3600)
					if err != nil {
						t.Fatal(err)
					}
					for e := 0; e <= 13; e++ {
						fz := m.Freeze(math.Pow(10, float64(e)))
						v, err := checkPeriodSearch(&fz, opts, vals)
						if err != nil {
							t.Fatalf("%s/%v α=%g λ=%g×, P=1e%d: %v", pl.Name, sc, alpha, k, e, err)
						}
						verdicts[v]++
					}
				}
			}
		}
	}
	// Every pair is checked in full or infeasible both ways, and the grid
	// holds both kinds.
	if verdicts[nearOverflow] != 0 || verdicts[checked] == 0 || verdicts[allInf] == 0 {
		t.Fatalf("verdicts (all +Inf, checked, near overflow) = %v", verdicts)
	}
}

// FuzzOptimalPeriod runs checkPeriodSearch over fuzzed models (a Table
// II platform and scenario with any sequential fraction, error rate and
// downtime), processor counts and period boxes. Inputs the API rejects
// must fail validation, never panic; accepted ones must return a finite
// T inside the box. The seed corpus (testdata/fuzz/FuzzOptimalPeriod)
// holds P = 1 and 1e13, α = 0, D = 0, λ_ind = 1e300, extreme boxes and
// two minima within e^Δ of the float64 range (near-overflow-*).
func FuzzOptimalPeriod(f *testing.F) {
	f.Fuzz(func(t *testing.T, plat, sc uint8, alpha, lambda, downtime, p, tMin, tMax float64) {
		pl := platform.All()[int(plat)%4]
		m, err := periodModel(pl, costmodel.Scenario(1+int(sc)%6), alpha, lambda, downtime)
		if err != nil {
			return
		}
		box := PatternOptions{TMin: tMin, TMax: tMax}
		tt, h, err := OptimalPeriod(m, p, box)
		opts := box.withDefaults()
		valid := opts.validate() == nil && p >= 1 && !math.IsInf(p, 1)
		if !valid {
			if err == nil {
				t.Fatalf("OptimalPeriod accepted P = %g in box [%g, %g]", p, tMin, tMax)
			}
			return
		}
		if err == nil && (math.IsNaN(h) || !(tt >= opts.TMin && tt <= opts.TMax)) {
			t.Fatalf("OptimalPeriod returned T = %g, H = %g for the box [%g, %g]", tt, h, opts.TMin, opts.TMax)
		}
		if err != nil && !errors.Is(err, errGridAllInf) {
			t.Fatalf("OptimalPeriod failed on valid input: %v", err)
		}
		fz := m.Freeze(p)
		if _, err := checkPeriodSearch(&fz, opts, make([]float64, referenceGrid)); err != nil {
			t.Fatalf("%s/%d α=%g λ=%g D=%g P=%g box [%g, %g]: %v",
				pl.Name, 1+int(sc)%6, alpha, lambda, downtime, p, opts.TMin, opts.TMax, err)
		}
	})
}
