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
// refinement and the Newton period search with its overflow clip are
// all required to reproduce these bit-for-bit: any divergence means
// the "compiled kernel"
// no longer evaluates Proposition 1 exactly like the reference Model path,
// or the search itself changed.
var numericalOptimumGoldens = []struct {
	platform string
	scenario costmodel.Scenario
	t, p, h  float64
}{
	{"Hera", costmodel.Scenario1, 6554.8577790478976, 207.21388817602994, 0.10903714666640325},
	{"Hera", costmodel.Scenario3, 9241.486240594777, 237.22449150058358, 0.11133239179670225},
	{"Hera", costmodel.Scenario5, 4558.0797273755761, 707.37072082647944, 0.11288296011137565},
	{"Atlas", costmodel.Scenario1, 5411.2982845031283, 227.99777763436904, 0.10816583383988683},
	{"Atlas", costmodel.Scenario3, 11191.7083136652, 219.17952000653744, 0.11263046376794297},
	{"Atlas", costmodel.Scenario5, 3978.973554385997, 1305.9726498988175, 0.119593764296428},
	{"Coastal", costmodel.Scenario1, 15560.029056120396, 360.45499292494839, 0.10505791825470008},
	{"Coastal", costmodel.Scenario3, 38614.808988652949, 321.20821964009457, 0.10852991054057884},
	{"Coastal", costmodel.Scenario5, 12708.510081942954, 2415.0323906022254, 0.11529437228572946},
	{"CoastalSSD", costmodel.Scenario1, 29074.376060800118, 287.68118775136503, 0.10696421761265998},
	{"CoastalSSD", costmodel.Scenario3, 71506.23949624419, 235.50668783135802, 0.11175114020514078},
	{"CoastalSSD", costmodel.Scenario5, 34900.240897908909, 1357.9075651435608, 0.12466478759098575},
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
