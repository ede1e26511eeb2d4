package optimize_test

import (
	"fmt"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/speedup"
)

// The paper's "optimal (numerical)" solution: joint minimization of the
// exact overhead over period and processor count.
func ExampleOptimalPattern() {
	res, _ := costmodel.Scenario1.Calibrate(512, 300, 15.4, 3600)
	m := core.Model{
		LambdaInd:    1.69e-8,
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	sol, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P* = %.0f, T* = %.0f s, overhead = %.4f\n", sol.P, sol.T, sol.Overhead)
	// Output:
	// P* = 207, T* = 6555 s, overhead = 0.1090
}
