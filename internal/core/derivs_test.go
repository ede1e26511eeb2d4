package core

import (
	"math"
	"math/big"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// platformModel builds the model of a Table II platform at scenario sc,
// individual error rate lambda and downtime d.
func platformModel(pl platform.Platform, sc costmodel.Scenario, lambda, d float64) (Model, error) {
	res, err := pl.Resilience(sc, d)
	if err != nil {
		return Model{}, err
	}
	m := Model{
		LambdaInd:    lambda,
		FailStopFrac: pl.FailStopFraction,
		SilentFrac:   pl.SilentFraction,
		Res:          res,
		Profile:      speedup.PerfectlyParallel{},
	}
	return m, m.Validate()
}

// scaledRecovery returns m with its recovery cost R_P scaled by k.
func scaledRecovery(m Model, k float64) Model {
	r := &m.Res.Recovery
	r.A, r.B, r.C = r.A*k, r.B*k, r.C*k
	return m
}

// TestPatternTimeDerivsBitIdentical holds the E that PatternTimeDerivs
// returns to PatternTime bit for bit on the regular branch (R = C, R > C
// and R < C), the λf → 0 limit branch (a silent-only model, and rates
// below the branch floor), the overflow plateau past OverflowPeriod, and
// t ≤ 0, NaN and +Inf, where r and s must read +Inf as well.
func TestPatternTimeDerivsBitIdentical(t *testing.T) {
	hera, err := platformModel(platform.Hera(), costmodel.Scenario1, platform.Hera().LambdaInd, 3600)
	if err != nil {
		t.Fatal(err)
	}
	silentOnly := hera
	silentOnly.FailStopFrac, silentOnly.SilentFrac = 0, 1
	tiny := hera
	tiny.LambdaInd = 1e-22
	for _, c := range []struct {
		name  string
		fz    Frozen
		limit bool // whether some period of the grid takes the λf → 0 branch
	}{
		{"regular", hera.Freeze(219), false},
		{"regular, R = 3C", scaledRecovery(hera, 3).Freeze(219), false},
		{"regular, R = C/3", scaledRecovery(hera, 1.0/3).Freeze(219), false},
		{"failure-dominated", hera.Freeze(1e5), false},
		{"limit, silent only", silentOnly.Freeze(1e4), true},
		{"limit, tiny rate", tiny.Freeze(10), true},
	} {
		name, fz := c.name, c.fz
		periods := []float64{0, -1, math.Inf(-1), math.NaN(), math.Inf(1), 5e-324, 1e-6}
		for p := 1e-3; p < 1e30; p *= 3.7 {
			periods = append(periods, p)
		}
		if tOv := fz.OverflowPeriod(); tOv > 0 && !math.IsInf(tOv, 1) {
			periods = append(periods, tOv, tOv*(1+1e-15), tOv*2, math.Nextafter(tOv, 0))
		}
		limitSeen, finiteSeen := false, false
		for _, period := range periods {
			e, r, s := fz.PatternTimeDerivs(period)
			want := fz.PatternTime(period)
			if math.Float64bits(e) != math.Float64bits(want) {
				t.Fatalf("%s: E(%g) = %b, PatternTime = %b", name, period, e, want)
			}
			if math.IsInf(e, 1) {
				if !math.IsInf(r, 1) || !math.IsInf(s, 1) {
					t.Errorf("%s: E(%g) = +Inf but r = %g, s = %g", name, period, r, s)
				}
				continue
			}
			finiteSeen = true
			if !(r >= 0) || !(s >= 0) || math.IsInf(r, 1) || math.IsInf(s, 1) {
				t.Errorf("%s: at t = %g, r = %g and s = %g, want both finite and ≥ 0", name, period, r, s)
			}
			if _, _, _, limit := fz.pattern(period); limit {
				limitSeen = true
			}
		}
		if !finiteSeen {
			t.Errorf("%s: no finite pattern time on the grid", name)
		}
		if limitSeen != c.limit {
			t.Errorf("%s: limit branch taken = %t, want %t", name, limitSeen, c.limit)
		}
	}
}

// bigPrec is the working precision of the math/big reference.
const bigPrec = 256

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

// bigExp returns e^x: a Taylor series at x/2^k, |x/2^k| < 2^-10, squared
// k times.
func bigExp(x *big.Float) *big.Float {
	y := new(big.Float).SetPrec(bigPrec).Set(x)
	k := 0
	for y.Sign() != 0 && y.MantExp(nil) > -10 {
		y.SetMantExp(y, -1)
		k++
	}
	sum, term := bigF(1), bigF(1)
	for n := 1; n <= 30; n++ {
		term.Mul(term, y)
		term.Quo(term, bigF(float64(n)))
		sum.Add(sum, term)
	}
	for ; k > 0; k-- {
		sum.Mul(sum, sum)
	}
	return sum
}

// bigRatios returns r = t·E′/E and s = t²·E″/E of Proposition 1 at the
// compiled rates and costs, in bigPrec arithmetic. On the regular branch,
// with k = 1/λf + D, G = λf(C+t+V) + λs·t and S = λs·t,
// E = k·[e^{λf·R}·(e^G − 1) − e^{λf·C}·(e^S − 1)],
// E′ = k·[e^{λf·R}·(λf+λs)·e^G − e^{λf·C}·λs·e^S] and
// E″ = k·[e^{λf·R}·(λf+λs)²·e^G − e^{λf·C}·λs²·e^S]; on the λf → 0 limit
// branch (limit set, or λf = 0) E = C + (t+V)·e^S + (e^S − 1)·R and its
// derivatives.
func bigRatios(fz *Frozen, t float64, limit bool) (r, s float64) {
	lf, ls := bigF(fz.LambdaF), bigF(fz.LambdaS)
	bt := bigF(t)
	expS := bigExp(new(big.Float).Mul(ls, bt))
	e, d1, d2 := new(big.Float), new(big.Float), new(big.Float)
	if limit || fz.LambdaF == 0 {
		w := new(big.Float).Add(bt, bigF(fz.V))
		e.Mul(w, expS)
		e.Add(e, bigF(fz.C))
		e.Add(e, new(big.Float).Mul(new(big.Float).Sub(expS, bigF(1)), bigF(fz.R)))
		w.Add(w, bigF(fz.R))
		w.Mul(w, ls)
		d1.Add(bigF(1), w)
		d1.Mul(d1, expS)
		d2.Add(bigF(2), w)
		d2.Mul(d2, ls)
		d2.Mul(d2, expS)
	} else {
		k := new(big.Float).Quo(bigF(1), lf)
		k.Add(k, bigF(fz.D))
		g := new(big.Float).Add(bigF(fz.C), bt)
		g.Add(g, bigF(fz.V))
		g.Mul(g, lf)
		g.Add(g, new(big.Float).Mul(ls, bt))
		expR := bigExp(new(big.Float).Mul(lf, bigF(fz.R)))
		expC := bigExp(new(big.Float).Mul(lf, bigF(fz.C)))
		grow := new(big.Float).Mul(bigExp(g), expR)
		shrink := new(big.Float).Mul(expS, expC)
		e.Sub(grow, expR)
		e.Sub(e, shrink)
		e.Add(e, expC)
		e.Mul(e, k)
		rate := new(big.Float).Add(lf, ls)
		deriv := func(v *big.Float, rate, ls *big.Float) {
			v.Mul(grow, rate)
			v.Sub(v, new(big.Float).Mul(shrink, ls))
			v.Mul(v, k)
		}
		deriv(d1, rate, ls)
		deriv(d2, new(big.Float).Mul(rate, rate), new(big.Float).Mul(ls, ls))
	}
	d1.Mul(d1, bt)
	d1.Quo(d1, e)
	d2.Mul(d2, bt)
	d2.Mul(d2, bt)
	d2.Quo(d2, e)
	r, _ = d1.Float64()
	s, _ = d2.Float64()
	return r, s
}

// ratioError returns the larger relative error of (r, s) against the
// reference (wr, ws).
func ratioError(r, s, wr, ws float64) float64 {
	rel := func(got, want float64) float64 {
		if got == want {
			return 0
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	return math.Max(rel(r, wr), rel(s, ws))
}

// TestPatternTimeDerivsMatchBigFloat checks r = t·E′/E and s = t²·E″/E
// against the math/big reference to a relative 1e-12 on the four Table
// II platforms × six scenarios × P in whole decades from 1 to 1e13 ×
// error rates from 0.01 to 1000 times the platform's own, at periods from
// 1 µs to 1e9 s and Theorem 1's, wherever E is finite, with R = C as in
// the paper and, on the same grid, R = 3C and R = C/3; plus the λf → 0
// limit branch of a silent-only model; plus one model whose downtime
// puts k within e^{λf(C+t+V)+λs·t} of the float64 range.
func TestPatternTimeDerivsMatchBigFloat(t *testing.T) {
	const tol = 1e-12
	checked := 0
	check := func(name string, fz *Frozen, period float64) {
		t.Helper()
		e, r, s := fz.PatternTimeDerivs(period)
		if math.IsInf(e, 1) {
			return
		}
		_, _, _, limit := fz.pattern(period)
		wr, ws := bigRatios(fz, period, limit)
		if rel := ratioError(r, s, wr, ws); !(rel <= tol) {
			t.Fatalf("%s, P = %g, R = %g, t = %g: r = %.17g, s = %.17g; reference %.17g, %.17g (rel. error %.2g)",
				name, fz.P, fz.R, period, r, s, wr, ws, rel)
		}
		checked++
	}
	for _, pl := range platform.All() {
		for sc := costmodel.Scenario1; sc <= costmodel.Scenario6; sc++ {
			for _, mult := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
				m, err := platformModel(pl, sc, mult*pl.LambdaInd, 3600)
				if err != nil {
					t.Fatal(err)
				}
				for _, rScale := range []float64{1, 3, 1.0 / 3} {
					mr := scaledRecovery(m, rScale)
					for e := 0; e <= 13; e++ {
						fz := mr.Freeze(math.Pow(10, float64(e)))
						for _, period := range []float64{1e-6, 1e-3, 1, 60, 3600, 1e5, 1e7, 1e9, fz.OptimalPeriod()} {
							check(pl.Name+"/"+sc.String(), &fz, period)
						}
					}
				}
			}
		}
	}
	silentOnly, err := platformModel(platform.Hera(), costmodel.Scenario3, platform.Hera().LambdaInd, 3600)
	if err != nil {
		t.Fatal(err)
	}
	silentOnly.FailStopFrac, silentOnly.SilentFrac = 0, 1
	for e := 0; e <= 13; e++ {
		fz := silentOnly.Freeze(math.Pow(10, float64(e)))
		for _, period := range []float64{1e-6, 1, 3600, 1e6, fz.OptimalPeriod()} {
			check("Hera/silent only", &fz, period)
		}
	}
	// Hera, scenario 1, P = 512, D = 1.75e308: at Theorem 1's period
	// k·e^{λf·R}·(1 + g) is past MaxFloat64 while E is ~2e306.
	huge, err := platformModel(platform.Hera(), costmodel.Scenario1, platform.Hera().LambdaInd, 1.75e308)
	if err != nil {
		t.Fatal(err)
	}
	fz := huge.Freeze(512)
	for _, period := range []float64{1, 60, 2970, fz.OptimalPeriod(), 1e5} {
		check("Hera/huge downtime", &fz, period)
	}
	if checked < 3*8000 {
		t.Fatalf("only %d finite points checked", checked)
	}
}

// FuzzPatternTimeDerivs holds PatternTimeDerivs, for any Table II
// platform and scenario with any error rate, downtime and recovery cost
// (the checkpoint cost scaled by rScale, when that is a finite
// non-negative factor), processor count and period, to four properties:
// it does not panic; its E is bit-identical to PatternTime; wherever E
// is finite and positive, r = t·E′/E and s = t²·E″/E are finite and not
// negative — every term of both is non-negative, so the rounding slack
// is zero, and this is the convexity of E that the period search's sign
// bracket rests on; and away from the subnormal range (λf·t, λs·t and E
// each 0 or above 1e-200), r and s match the math/big reference to a
// relative 1e-12. The seed corpus is in testdata/fuzz/FuzzPatternTimeDerivs.
func FuzzPatternTimeDerivs(f *testing.F) {
	f.Fuzz(func(t *testing.T, plat, sc uint8, lambda, downtime, rScale, p, period float64) {
		pl := platform.All()[int(plat)%4]
		m, err := platformModel(pl, costmodel.Scenario(1+int(sc)%6), lambda, downtime)
		if err != nil {
			return
		}
		if rScale >= 0 && !math.IsInf(rScale, 1) {
			m = scaledRecovery(m, rScale)
		}
		if !(p >= 1) || math.IsInf(p, 1) || m.Validate() != nil {
			return
		}
		fz := m.Freeze(p)
		e, r, s := fz.PatternTimeDerivs(period)
		if want := fz.PatternTime(period); math.Float64bits(e) != math.Float64bits(want) {
			t.Fatalf("E(%g) = %b, PatternTime = %b", period, e, want)
		}
		if !(e > 0) || math.IsInf(e, 1) {
			return
		}
		if !(r >= 0) || !(s >= 0) || math.IsInf(r, 1) || math.IsInf(s, 1) {
			t.Fatalf("P = %g, t = %g: E = %g, r = %g, s = %g; want r and s finite and ≥ 0", p, period, e, r, s)
		}
		const floor = 1e-200
		normal := func(x float64) bool { return x == 0 || x > floor }
		if !normal(fz.LambdaF*period) || !normal(fz.LambdaS*period) || !normal(e) {
			return
		}
		_, _, _, limit := fz.pattern(period)
		wr, ws := bigRatios(&fz, period, limit)
		if rel := ratioError(r, s, wr, ws); !(rel <= 1e-12) {
			t.Fatalf("P = %g, R = %g, t = %g: r = %.17g, s = %.17g; reference %.17g, %.17g (rel. error %.2g)",
				p, fz.R, period, r, s, wr, ws, rel)
		}
	})
}
