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
// refinement seeded from the grid and the Newton period search with its
// overflow clip are all required to reproduce these bit-for-bit: any divergence means
// the "compiled kernel"
// no longer evaluates Proposition 1 exactly like the reference Model path,
// or the search itself changed.
var numericalOptimumGoldens = []struct {
	platform string
	scenario costmodel.Scenario
	t, p, h  float64
}{
	{"Hera", costmodel.Scenario1, 6554.8577795684787, 207.21388792703442, 0.10903714666640324},
	{"Hera", costmodel.Scenario3, 9241.485941197936, 237.22450661637569, 0.1113323917967023},
	{"Hera", costmodel.Scenario5, 4558.0800044717798, 707.37067638916005, 0.11288296011137566},
	{"Atlas", costmodel.Scenario1, 5411.2983097861925, 227.99775712825991, 0.10816583383988708},
	{"Atlas", costmodel.Scenario3, 11191.708868645424, 219.17949868753408, 0.11263046376794303},
	{"Atlas", costmodel.Scenario5, 3978.9733342463164, 1305.9727243790594, 0.11959376429642798},
	{"Coastal", costmodel.Scenario1, 15560.029095777785, 360.45494152069051, 0.10505791825470009},
	{"Coastal", costmodel.Scenario3, 38614.809745967039, 321.2082072090875, 0.10852991054057881},
	{"Coastal", costmodel.Scenario5, 12708.51297186939, 2415.0318400862789, 0.1152943722857295},
	{"CoastalSSD", costmodel.Scenario1, 29074.376370732836, 287.68117042324661, 0.10696421761265984},
	{"CoastalSSD", costmodel.Scenario3, 71506.240801384018, 235.50667939009622, 0.11175114020514088},
	{"CoastalSSD", costmodel.Scenario5, 34900.247371052603, 1357.9073077357641, 0.12466478759098584},
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
