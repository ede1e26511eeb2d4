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
// refinement and the infeasible-grid rejection are all required to
// reproduce these bit-for-bit: any divergence means the "compiled kernel"
// no longer evaluates Proposition 1 exactly like the reference Model path,
// or the search itself changed.
var numericalOptimumGoldens = []struct {
	platform string
	scenario costmodel.Scenario
	t, p, h  float64
}{
	{"Hera", costmodel.Scenario1, 6554.8576950293555, 207.21390502261019, 0.10903714666640314},
	{"Hera", costmodel.Scenario3, 9241.4859831297927, 237.22450626552401, 0.11133239179670219},
	{"Hera", costmodel.Scenario5, 4558.079790742574, 707.37069838190212, 0.11288296011137558},
	{"Atlas", costmodel.Scenario1, 5411.298416452817, 227.99778715390886, 0.10816583383988655},
	{"Atlas", costmodel.Scenario3, 11191.708736553905, 219.17949856355233, 0.11263046376794274},
	{"Atlas", costmodel.Scenario5, 3978.972679007923, 1305.972940803973, 0.11959376429642775},
	{"Coastal", costmodel.Scenario1, 15560.02899598162, 360.45499988235275, 0.10505791825469993},
	{"Coastal", costmodel.Scenario3, 38614.808787774025, 321.20821955262517, 0.10852991054057876},
	{"Coastal", costmodel.Scenario5, 12708.508854944061, 2415.0326463900437, 0.1152943722857294},
	{"CoastalSSD", costmodel.Scenario1, 29074.376591090444, 287.68118556799215, 0.10696421761265978},
	{"CoastalSSD", costmodel.Scenario3, 71506.24488875868, 235.50667730089725, 0.11175114020514068},
	{"CoastalSSD", costmodel.Scenario5, 34900.24136393972, 1357.9075770053976, 0.12466478759098573},
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
