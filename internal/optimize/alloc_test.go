package optimize_test

import (
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// TestAllocationContracts pins the allocation counts that
// BenchmarkSweepSolverWarmCell, BenchmarkNumericalOptimum,
// BenchmarkMultilevelOptimize and BenchmarkHeteroOptimize record: a warm
// sweep cell, a cold OptimalPattern and a default-box two-level solve
// allocate nothing, and a hetero solve only its per-group bookkeeping
// (the active-count scan's memo, candidate slices and plans). Each
// depends on every probe's core.Frozen and the scan's probe memo staying
// on the stack, which no functional test notices: calling the refinement
// through a func variable, for one, sends each kernel to the heap. The
// test lives outside package optimize so that it can drive the solvers
// built on its scan.
func TestAllocationContracts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	res, err := costmodel.Scenario3.Calibrate(512, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m1 := core.Model{LambdaInd: 1.69e-8, FailStopFrac: 0.2188, SilentFrac: 0.7812,
		Res: res, Profile: speedup.Amdahl{Alpha: 0.1}}
	m2 := m1
	m2.LambdaInd = m1.LambdaInd * 1.3
	s := optimize.NewSweepSolver(optimize.SweepOptions{})
	if _, err := s.Solve(m1); err != nil {
		t.Fatal(err)
	}
	cell := 0
	costsFor := multilevel.InMemoryFraction(m1, 20.0/300)
	hm, err := hetero.CompileTopology(experiments.HeteroStudyTopology(platform.Hera(), 1e-5, 0.25), costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"warm sweep cell", 0, func() {
			m := m1
			if cell%2 == 0 {
				m = m2
			}
			cell++
			if res, err := s.Solve(m); err != nil || !res.Warm {
				t.Fatalf("cell %d: warm=%t err=%v", cell, res.Warm, err)
			}
		}},
		{"OptimalPattern", 0, func() {
			if _, err := optimize.OptimalPattern(m1, optimize.PatternOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"multilevel.OptimalPattern", 0, func() {
			if _, err := multilevel.OptimalPattern(m1, costsFor, multilevel.PatternOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"hetero.OptimalPattern", 16, func() {
			if _, err := hetero.OptimalPattern(hm, hetero.PatternOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(10, c.run); got > c.max {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, got, c.max)
		}
	}
}
