package optimize

import (
	"testing"

	"amdahlyd/internal/costmodel"
)

// TestAllocationContracts pins the allocation counts that
// BenchmarkSweepSolverWarmCell and BenchmarkNumericalOptimum record: a
// warm sweep cell allocates nothing, and OptimalPattern only its probe
// memo. Both depend on every probe's core.Frozen staying on the stack,
// which no functional test notices: calling the refinement through a
// func variable, for one, sends each kernel to the heap.
func TestAllocationContracts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	m1 := heraModel(t, costmodel.Scenario3, 0.1)
	m2 := m1
	m2.LambdaInd = m1.LambdaInd * 1.3
	s := NewSweepSolver(SweepOptions{})
	if _, err := s.Solve(m1); err != nil {
		t.Fatal(err)
	}
	cell := 0
	warm := testing.AllocsPerRun(20, func() {
		m := m1
		if cell%2 == 0 {
			m = m2
		}
		cell++
		if res, err := s.Solve(m); err != nil || !res.Warm {
			t.Fatalf("cell %d: warm=%t err=%v", cell, res.Warm, err)
		}
	})
	if warm != 0 {
		t.Errorf("warm sweep cell: %v allocs/op, want 0", warm)
	}
	cold := testing.AllocsPerRun(5, func() {
		if _, err := OptimalPattern(m1, PatternOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 3 {
		t.Errorf("OptimalPattern: %v allocs/op, want at most 3 (the probe memo)", cold)
	}
}
