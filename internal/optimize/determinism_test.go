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
	{"Hera", costmodel.Scenario1, 6554.8577677677431, 207.21389357262512, 0.10903714666640321},
	{"Hera", costmodel.Scenario3, 9241.48619939948, 237.22449358043028, 0.11133239179670223},
	{"Hera", costmodel.Scenario5, 4558.0797596382008, 707.37071565259657, 0.11288296011137561},
	{"Atlas", costmodel.Scenario1, 5411.2982252086185, 227.99782572690515, 0.10816583383988677},
	{"Atlas", costmodel.Scenario3, 11191.709001406816, 219.1794935876313, 0.11263046376794304},
	{"Atlas", costmodel.Scenario5, 3978.9722344125025, 1305.973089871645, 0.11959376429642807},
	{"Coastal", costmodel.Scenario1, 15560.029066189156, 360.45497987352184, 0.10505791825469996},
	{"Coastal", costmodel.Scenario3, 38614.808884198355, 321.20822135466335, 0.10852991054057881},
	{"Coastal", costmodel.Scenario5, 12708.513042885275, 2415.0318265581095, 0.11529437228572946},
	{"CoastalSSD", costmodel.Scenario1, 29074.375924440275, 287.68119537525524, 0.10696421761265987},
	{"CoastalSSD", costmodel.Scenario3, 71506.238997891196, 235.50669105455421, 0.11175114020514071},
	{"CoastalSSD", costmodel.Scenario5, 34900.241326457181, 1357.9075481021173, 0.12466478759098573},
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
