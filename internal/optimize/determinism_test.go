package optimize

import (
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// The (T*, P*, H) solutions of OptimalPattern on the four Table II
// platforms at α = 0.1, D = 3600 s, printed at full float64 precision.
// The frozen evaluation engine, the probe memo, the u-space Brent
// refinement and the three-point period search with its overflow clip
// are all required to reproduce these bit-for-bit: any divergence means
// the "compiled kernel"
// no longer evaluates Proposition 1 exactly like the reference Model path,
// or the search itself changed.
var numericalOptimumGoldens = []struct {
	platform string
	scenario costmodel.Scenario
	t, p, h  float64
}{
	{"Hera", costmodel.Scenario1, 6554.8576883111355, 207.21388292140819, 0.10903714666640314},
	{"Hera", costmodel.Scenario3, 9241.4858277951189, 237.22451929792112, 0.11133239179670219},
	{"Hera", costmodel.Scenario5, 4558.079930472918, 707.37066984084902, 0.11288296011137557},
	{"Atlas", costmodel.Scenario1, 5411.2982769171404, 227.99778806996756, 0.10816583383988679},
	{"Atlas", costmodel.Scenario3, 11191.708893502095, 219.17949993951748, 0.11263046376794265},
	{"Atlas", costmodel.Scenario5, 3978.9722481912049, 1305.973121008393, 0.11959376429642778},
	{"Coastal", costmodel.Scenario1, 15560.029176433112, 360.45499890886231, 0.10505791825469993},
	{"Coastal", costmodel.Scenario3, 38614.808828379973, 321.20820804527818, 0.10852991054057873},
	{"Coastal", costmodel.Scenario5, 12708.514626039618, 2415.0315951830121, 0.11529437228572936},
	{"CoastalSSD", costmodel.Scenario1, 29074.372502862327, 287.68119621817118, 0.10696421761265983},
	{"CoastalSSD", costmodel.Scenario3, 71506.243396726641, 235.50667073776245, 0.11175114020514064},
	{"CoastalSSD", costmodel.Scenario5, 34900.240405322489, 1357.907589837992, 0.12466478759098572},
}

// TestOptimalPatternBitIdentical verifies OptimalPattern returns
// bit-identical solutions to the pinned ones on all four Table II
// platforms.
func TestOptimalPatternBitIdentical(t *testing.T) {
	for _, g := range numericalOptimumGoldens {
		pl, err := platform.Lookup(g.platform)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Resilience(g.scenario, 3600)
		if err != nil {
			t.Fatal(err)
		}
		m := core.Model{
			LambdaInd:    pl.LambdaInd,
			FailStopFrac: pl.FailStopFraction,
			SilentFrac:   pl.SilentFraction,
			Res:          res,
			Profile:      speedup.Amdahl{Alpha: 0.1},
		}
		sol, err := OptimalPattern(m, PatternOptions{})
		if err != nil {
			t.Fatalf("%s/%v: %v", g.platform, g.scenario, err)
		}
		if sol.T != g.t || sol.P != g.p || sol.Overhead != g.h {
			t.Errorf("%s/%v drifted from the pinned optimum:\n got  T=%.17g P=%.17g H=%.17g\n want T=%.17g P=%.17g H=%.17g",
				g.platform, g.scenario, sol.T, sol.P, sol.Overhead, g.t, g.p, g.h)
		}
	}
}
