package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// TestPriceUnsimulableRule checks each clause of the unsimulable rule
// once, and that a simulable price is the simulator's own summary bit
// for bit. A done context proves that a price returned without
// simulating: every simulator below fails on it.
func TestPriceUnsimulableRule(t *testing.T) {
	ctx := context.Background()
	done, cancel := context.WithCancel(ctx)
	cancel()
	pl := platform.Hera()
	m, err := BuildModel(pl, costmodel.Scenario1, DefaultAlpha, DefaultDowntime)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.RunConfig{Runs: 20, Patterns: 20, Seed: 7, Workers: 1}
	weibull, err := failures.ParseDistribution("weibull", 0.7, pl.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	machine := cfg
	machine.Dist = weibull
	const pressure = 1e9 // a period deep in the failure-dominated regime

	unsimulable := func(name string, pr Price, err error, procs int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: err = %v, want an unsimulable price", name, err)
		}
		if !pr.Unsimulable || !math.IsNaN(pr.H) || !math.IsNaN(pr.CI) || pr.Procs != procs {
			t.Errorf("%s: price %+v, want unsimulable with NaN H and CI and Procs %d", name, pr, procs)
		}
	}
	same := func(name string, pr Price, err error, want stats.Summary, wantErr error, procs int) {
		t.Helper()
		if err != nil || wantErr != nil {
			t.Fatalf("%s: err = %v, simulator err = %v", name, err, wantErr)
		}
		if pr.Unsimulable || pr.Procs != procs ||
			math.Float64bits(pr.H) != math.Float64bits(want.Mean) ||
			math.Float64bits(pr.CI) != math.Float64bits(want.CI95) {
			t.Errorf("%s: price %+v, want H %v, CI %v, Procs %d", name, pr, want.Mean, want.CI95, procs)
		}
	}

	// Pattern level: error pressure, and a simulable cell.
	pr, err := PricePattern(ctx, m, pressure, 219, cfg)
	unsimulable("pattern-level error pressure", pr, err, 0)
	tp := m.OptimalPeriodFixedP(219)
	pr, err = PricePattern(ctx, m, tp, 219, cfg)
	res, simErr := sim.SimulateContext(ctx, m, tp, 219, cfg)
	same("pattern level", pr, err, res.Overhead, simErr, 0)
	if _, err := PricePattern(done, m, tp, 219, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("a simulable price on a done context: err = %v, want context.Canceled", err)
	}

	// Machine level: the cap before any simulation, the rounded
	// allocation, and error pressure with the allocation recorded.
	pr, err = PricePattern(done, m, tp, sim.MaxMachineProcs+0.6, machine)
	unsimulable("machine level above the cap", pr, err, 0)
	t3 := m.OptimalPeriodFixedP(3)
	pr, err = PricePattern(ctx, m, t3, 2.6, machine)
	mcfg := machine
	mcfg.Machine = true
	res, simErr = sim.SimulateContext(ctx, m, t3, 3, mcfg)
	same("machine level at P = 2.6", pr, err, res.Overhead, simErr, 3)
	pr, err = PricePattern(ctx, m, pressure, 2.6, machine)
	unsimulable("machine-level error pressure", pr, err, 3)

	// Two levels: at the allocation bound, and off it.
	ml, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, 0.2), multilevel.PatternOptions{IntegerP: true})
	if err != nil {
		t.Fatal(err)
	}
	pat := multilevel.Pattern{T: ml.T, K: ml.K}
	pr, err = PriceTwoLevel(done, m, 0.2, pat, ml.P, true, cfg)
	unsimulable("two-level optimum at the bound", pr, err, 0)
	pr, err = PriceTwoLevel(ctx, m, 0.2, pat, ml.P, false, cfg)
	mlRes, simErr := multilevel.SimulateModel(ctx, m, 0.2, pat, ml.P,
		multilevel.CampaignConfig{Runs: cfg.Runs, Patterns: cfg.Patterns, Seed: cfg.Seed, Workers: cfg.Workers})
	same("two levels", pr, err, mlRes.Overhead, simErr, 0)
	if _, err := PriceTwoLevel(done, m, 0.2, pat, ml.P, false, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("a simulable two-level price on a done context: err = %v, want context.Canceled", err)
	}

	// Heterogeneous plans: a simulable plan, and an error-pressured one.
	hm, err := hetero.CompileTopology(HeteroStudyTopology(pl, 1e-5, 0.25), costmodel.Scenario1, DefaultAlpha, DefaultDowntime)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hetero.OptimalPattern(hm, hetero.PatternOptions{PatternOptions: optimize.PatternOptions{IntegerP: true}})
	if err != nil {
		t.Fatal(err)
	}
	pr, err = PriceHetero(ctx, hm, plan.Groups, cfg)
	groups, err2 := hetero.GroupRuns(hm, plan.Groups)
	if err2 != nil {
		t.Fatal(err2)
	}
	hRes, simErr := sim.SimulateHeteroContext(ctx, groups, cfg)
	same("heterogeneous plan", pr, err, hRes.Overhead, simErr, 0)
	hot := append([]hetero.GroupPlan(nil), plan.Groups...)
	hot[0].T = pressure
	pr, err = PriceHetero(ctx, hm, hot, cfg)
	unsimulable("heterogeneous error pressure", pr, err, 0)
}
