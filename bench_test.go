package amdahlyd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amdahlyd/internal/baselines"
	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/fleet"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/service"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/xmath"
)

// benchConfig is the reduced Monte-Carlo budget used by the per-figure
// benchmarks: same code paths as the paper's 500×500 runs, ~100× cheaper,
// so `go test -bench .` regenerates every figure in seconds.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = 1
	return cfg
}

func heraModel(b *testing.B, sc costmodel.Scenario, alpha float64) core.Model {
	b.Helper()
	m, err := experiments.BuildModel(platform.Hera(), sc, alpha, 3600)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// ---------------------------------------------------------------------
// One benchmark per figure of the evaluation section (Figs. 2–7).
// ---------------------------------------------------------------------

// BenchmarkFig2 regenerates Fig. 2 (optimal patterns per scenario) on all
// four Table II platforms.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(context.Background(), platform.All(), benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3 (period and overhead vs processor
// count on Hera).
func BenchmarkFig3(b *testing.B) {
	procs := []float64{256, 512, 768, 1024, 1280}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(context.Background(), platform.Hera(), procs, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4 (impact of the sequential fraction α).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(context.Background(), platform.Hera(), nil, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (impact of λ_ind at α = 0.1).
func BenchmarkFig5(b *testing.B) {
	lambdas := []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(context.Background(), platform.Hera(), lambdas, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (λ_ind sweep with α = 0).
func BenchmarkFig6(b *testing.B) {
	lambdas := []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), platform.Hera(), lambdas, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (impact of the downtime D).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(context.Background(), platform.Hera(), nil, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Hot-path micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkExactPatternTime measures one evaluation of Proposition 1, the
// innermost objective of every optimization.
func BenchmarkExactPatternTime(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.ExactPatternTime(6000, 512)
	}
	_ = sink
}

// BenchmarkFreeze measures compiling a model at a fixed P — the once-per-
// probe cost the frozen engine pays to make every subsequent evaluation
// cheap.
func BenchmarkFreeze(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	var sink float64
	for i := 0; i < b.N; i++ {
		fz := m.Freeze(512)
		sink += fz.ProfileOverhead()
	}
	_ = sink
}

// BenchmarkFrozenOverhead measures the compiled kernel: one evaluation of
// the exact overhead at a pre-frozen P, the innermost objective of the
// nested (T, P) optimizer.
func BenchmarkFrozenOverhead(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	fz := m.Freeze(512)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += fz.Overhead(6000)
	}
	_ = sink
}

// BenchmarkFrozenPatternTimeDerivs measures the kernel the Newton period
// search calls on every step: E together with r = T·E′/E and
// s = T²·E″/E, at the same pre-frozen point as BenchmarkFrozenOverhead.
func BenchmarkFrozenPatternTimeDerivs(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	fz := m.Freeze(512)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, r, s := fz.PatternTimeDerivs(6000)
		sink += e + r + s
	}
	_ = sink
}

// BenchmarkFirstOrderSolve measures the closed-form Theorem 2/3 solver.
func BenchmarkFirstOrderSolve(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	for i := 0; i < b.N; i++ {
		if _, err := m.FirstOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNumericalOptimum measures the full nested (T, P) optimization
// of the exact overhead.
func BenchmarkNumericalOptimum(b *testing.B) {
	m := heraModel(b, costmodel.Scenario3, 0.1)
	for i := 0; i < b.N; i++ {
		if _, err := optimize.OptimalPattern(m, optimize.PatternOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWideBox measures a single-level solve on a box out to
// PMax = 1e300 whose feasible processor counts, P in [7.6, 32.8], lie
// between two grid points (Hera, scenario 5, α = 0.1, D = 7 s,
// λ_ind = 0.010492665906728114, FuzzOptimalPattern's corpus entry
// feasible-island-between-grid-points): the 348-point grid finds
// nothing, and the scan
// rescans the box at 30 points per decade, ~9,000 probes. It holds the
// scan's probe memo to a cost linear in its probes once they outgrow the
// memo's stack array.
func BenchmarkScanWideBox(b *testing.B) {
	m, err := experiments.BuildModel(platform.Hera(), costmodel.Scenario5, 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	m.LambdaInd = 0.010492665906728114
	for i := 0; i < b.N; i++ {
		if _, err := optimize.OptimalPattern(m, optimize.PatternOptions{PMax: 1e300}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSweepSolve measures one warm-start SweepSolver chain
// over a 32-cell λ_ind axis (scenario 3, the Fig. 5 shape). The
// amortized per-cell cost is the reported ns/cell metric. Warm and cold
// cells run the same Newton inner period search; a warm cell is the
// previous optimum, its two neighbours and one seeded polish. On a 2-CPU
// Xeon host (go1.24.0) ns/cell measured 1.7× below the cold
// BenchmarkNumericalOptimum (7.4 µs against 12.3 µs, medians of five
// runs); with a 10-point grid over a ×32 bracket it was 1.3×.
func BenchmarkBatchSweepSolve(b *testing.B) {
	base := heraModel(b, costmodel.Scenario3, 0.1)
	lambdas := xmath.Logspace(1e-12, 1e-8, 32)
	models := make([]core.Model, len(lambdas))
	for i, l := range lambdas {
		m := base
		m.LambdaInd = l
		models[i] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := optimize.NewSweepSolver(optimize.SweepOptions{})
		for _, m := range models {
			if _, err := s.Solve(m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(models)), "ns/cell")
}

// BenchmarkSweepSolverWarmCell measures the marginal cost of one warm
// cell: the solver alternates between two adjacent axis cells, so every
// timed solve runs inside the warm bracket of its neighbour.
func BenchmarkSweepSolverWarmCell(b *testing.B) {
	m1 := heraModel(b, costmodel.Scenario3, 0.1)
	m2 := m1
	m2.LambdaInd = m1.LambdaInd * 1.3
	s := optimize.NewSweepSolver(optimize.SweepOptions{})
	if _, err := s.Solve(m1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := m1
		if i%2 == 0 {
			m = m2
		}
		res, err := s.Solve(m)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Warm {
			b.Fatal("cell did not warm-start")
		}
	}
}

// BenchmarkIterativeRelaxation measures the Jin-style baseline solver.
func BenchmarkIterativeRelaxation(b *testing.B) {
	m := heraModel(b, costmodel.Scenario3, 0.1)
	for i := 0; i < b.N; i++ {
		if _, _, err := baselines.IterativeRelaxation(m, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolPattern measures pattern-level simulator throughput
// (patterns per second) at Hera's real error pressure.
func BenchmarkProtocolPattern(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	pr, err := sim.NewProtocol(m, 6240, 219)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	var st sim.PatternStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.SimulatePattern(r, &st)
	}
}

// BenchmarkMachinePattern measures machine-level (per-processor event)
// simulation — the ablation partner of BenchmarkProtocolPattern: it
// quantifies the cost of explicit per-processor failure modelling.
func BenchmarkMachinePattern(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	mc, err := sim.NewMachine(m, 6240, 219)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.SimulateRun(1, r.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerationExponential measures synthetic trace
// generation on the historical exponential law (~12.7k events over 64
// processors) — the hot path of trace-driven workloads.
func BenchmarkTraceGenerationExponential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := failures.GenerateTraceDist(failures.Exponential{Rate: 1e-6}, 0.3, 64, 2e8, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Events) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceGenerationWeibull is its ablation partner on the
// generic Distribution path (Weibull k = 0.7, same MTBF): the price of
// the Pow-based inversion over the plain log draw.
func BenchmarkTraceGenerationWeibull(b *testing.B) {
	d, err := failures.NewWeibullMTBF(0.7, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := failures.GenerateTraceDist(d, 0.3, 64, 2e8, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Events) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkMachinePatternWeibull measures the renewal-clock machine
// simulator (the robustness study's pricing oracle) against
// BenchmarkMachinePattern's exponential fast path.
func BenchmarkMachinePatternWeibull(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	d, err := failures.NewWeibullMTBF(0.7, 1/m.LambdaInd)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := sim.NewMachineDist(m, 6240, 219, d)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.SimulateRun(1, r.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoLevelPattern measures the multilevel-extension simulator.
func BenchmarkTwoLevelPattern(b *testing.B) {
	m := heraModel(b, costmodel.Scenario3, 0.1)
	lf, ls := m.Rates(512)
	costs, err := multilevel.SingleLevelCosts(m, 512, 20.0/300)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := multilevel.FirstOrder(costs, lf, ls, m.Profile.Overhead(512))
	if err != nil {
		b.Fatal(err)
	}
	s, err := multilevel.NewSimulator(costs, plan.Pattern, lf, ls)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	var st multilevel.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SimulatePattern(r, &st)
	}
}

// BenchmarkMultilevelOptimize measures the joint two-level (T, K, P)
// optimization — the per-cell unit of every multilevel sweep and of
// /v1/multilevel/optimize. Gated by scripts/bench.sh -compare: the
// inner (T, K) solve is closed-form, so this cost is dominated by the
// outer P scan and must only ever go down.
func BenchmarkMultilevelOptimize(b *testing.B) {
	m := heraModel(b, costmodel.Scenario3, 0.1)
	costsFor := multilevel.InMemoryFraction(m, 20.0/300)
	for i := 0; i < b.N; i++ {
		if _, err := multilevel.OptimalPattern(m, costsFor, multilevel.PatternOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultilevelCampaign measures a seeded two-level Monte-Carlo
// campaign on the shared chunked-dispatch runner at the bench budget
// (single worker for a stable gate), the unit of work behind every
// multilevel study cell and /v1/multilevel/simulate request.
func BenchmarkMultilevelCampaign(b *testing.B) {
	m := heraModel(b, costmodel.Scenario3, 0.1)
	lf, ls := m.Rates(512)
	costs, err := multilevel.SingleLevelCosts(m, 512, 20.0/300)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := multilevel.FirstOrder(costs, lf, ls, m.Profile.Overhead(512))
	if err != nil {
		b.Fatal(err)
	}
	s, err := multilevel.NewSimulator(costs, plan.Pattern, lf, ls)
	if err != nil {
		b.Fatal(err)
	}
	cfg := multilevel.CampaignConfig{
		Runs: 40, Patterns: 60, Seed: 1, Workers: 1,
		HOfP: m.Profile.Overhead(512),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := s.SimulateContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// heteroBenchModel compiles the Hera-derived two-group study topology at
// the given comm coefficient — the per-cell unit of the hetero campaign.
func heteroBenchModel(b *testing.B, comm float64) core.HeteroModel {
	b.Helper()
	tp := experiments.HeteroStudyTopology(platform.Hera(), comm, 0.25)
	hm, err := hetero.CompileTopology(tp, costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		b.Fatal(err)
	}
	return hm
}

// BenchmarkHeteroOptimize measures the cold joint heterogeneous solve —
// active-set scan, per-group (T, P) optima, harmonic work split — the
// per-cell unit of every hetero sweep and of /v1/hetero/optimize. Gated
// by scripts/bench.sh -compare.
func BenchmarkHeteroOptimize(b *testing.B) {
	hm := heteroBenchModel(b, 1e-5)
	for i := 0; i < b.N; i++ {
		if _, err := hetero.OptimalPattern(hm, hetero.PatternOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroSweep measures the warm-started comm-axis chain (the
// campaign/service sweep unit): a fresh SweepSolver walks the default
// comm grid, so the amortized ns/cell includes one cold anchor plus the
// warm bracket solves. Gated by scripts/bench.sh -compare.
func BenchmarkHeteroSweep(b *testing.B) {
	models := make([]core.HeteroModel, len(experiments.DefaultHeteroComms))
	for i, comm := range experiments.DefaultHeteroComms {
		models[i] = heteroBenchModel(b, comm)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := hetero.NewSweepSolver(hetero.SweepOptions{})
		for _, hm := range models {
			if _, err := s.Solve(hm); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(models)), "ns/cell")
}

// ---------------------------------------------------------------------
// Ablations called out in DESIGN.md.
// ---------------------------------------------------------------------

// BenchmarkInnerBrent: the scalar minimizer behind the outer P scan's
// refinement, on a smooth unimodal objective (the overhead as a function
// of log-period; the period search itself runs Newton, not Brent).
func BenchmarkInnerBrent(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	obj := func(logT float64) float64 {
		return m.Overhead(math.Exp(logT), 512)
	}
	for i := 0; i < b.N; i++ {
		res := optimize.BrentMin(obj, 0, 25, 1e-10)
		if !res.Converged {
			b.Fatal("brent did not converge")
		}
	}
}

// BenchmarkSimulateCampaign measures a full Monte-Carlo campaign (the
// unit of work behind every figure data point) at the bench budget.
func BenchmarkSimulateCampaign(b *testing.B) {
	m := heraModel(b, costmodel.Scenario1, 0.1)
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(m, 6240, 219, sim.RunConfig{
			Runs: 40, Patterns: 60, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Service-layer benchmarks (cmd/amdahl-serve): the cold-vs-warm pair is
// the acceptance record of the PR-3 cache — warm requests must be at
// least 10× cheaper than cold solves.
// ---------------------------------------------------------------------

// BenchmarkServiceOptimizeCold measures an engine optimize that can never
// hit the cache (λ_ind varies per request): the full nested (T, P) solve
// plus the service bookkeeping (canonical key, single-flight, scheduler).
func BenchmarkServiceOptimizeCold(b *testing.B) {
	e := service.NewEngine(service.Options{ResultCacheSize: 16})
	m := heraModel(b, costmodel.Scenario3, 0.1)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		mi := m
		mi.LambdaInd = m.LambdaInd * (1 + float64(i)*1e-9)
		if _, _, err := e.Optimize(ctx, mi, optimize.PatternOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceOptimizeWarm measures the same request repeated: one
// LRU probe under the canonical model key.
func BenchmarkServiceOptimizeWarm(b *testing.B) {
	e := service.NewEngine(service.Options{})
	m := heraModel(b, costmodel.Scenario3, 0.1)
	ctx := context.Background()
	if _, _, err := e.Optimize(ctx, m, optimize.PatternOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cached, err := e.Optimize(ctx, m, optimize.PatternOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !cached {
			b.Fatal("warm request missed the cache")
		}
	}
}

// BenchmarkServiceEvaluateWarm measures a warm evaluate: a cached Frozen
// probe plus the handful of kernel calls.
func BenchmarkServiceEvaluateWarm(b *testing.B) {
	e := service.NewEngine(service.Options{})
	m := heraModel(b, costmodel.Scenario1, 0.1)
	if _, err := e.Evaluate(m, 6240, 219); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(m, 6240, 219); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHTTPOptimize drives the full HTTP surface (request parsing, model
// build, engine, JSON response) against an in-process listener.
func benchHTTPOptimize(b *testing.B, body func(i int) []byte) {
	ts := httptest.NewServer(service.NewServer(service.NewEngine(service.Options{})))
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body(i)))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkServiceHTTPOptimizeCold is the end-to-end cold request: every
// iteration carries a distinct λ override, so every request solves.
func BenchmarkServiceHTTPOptimizeCold(b *testing.B) {
	base := platform.Hera().LambdaInd
	benchHTTPOptimize(b, func(i int) []byte {
		return []byte(fmt.Sprintf(
			`{"model":{"platform":"hera","scenario":3,"lambda":%.17g}}`,
			base*(1+float64(i+1)*1e-9)))
	})
}

// BenchmarkServiceHTTPOptimizeWarm is the end-to-end warm request; the
// gap to the cold benchmark is what the cache buys a real client.
func BenchmarkServiceHTTPOptimizeWarm(b *testing.B) {
	body := []byte(`{"model":{"platform":"hera","scenario":3}}`)
	benchHTTPOptimize(b, func(int) []byte { return body })
}

// BenchmarkServiceSweepCold measures a whole 16-cell axis solved as one
// engine sweep job with nothing cached (λ scale varies per iteration):
// the per-request price of a cold /v1/sweep, to be read against 16 cold
// /v1/optimize requests.
func BenchmarkServiceSweepCold(b *testing.B) {
	e := service.NewEngine(service.Options{ResultCacheSize: 16})
	base := heraModel(b, costmodel.Scenario3, 0.1)
	ctx := context.Background()
	lambdas := xmath.Logspace(1e-12, 1e-8, 16)
	for i := 0; i < b.N; i++ {
		models := make([]core.Model, len(lambdas))
		for j, l := range lambdas {
			m := base
			m.LambdaInd = l * (1 + float64(i)*1e-9)
			models[j] = m
		}
		if err := e.SweepStream(ctx, models, optimize.PatternOptions{}, false, discardCell); err != nil {
			b.Fatal(err)
		}
	}
}

func discardCell(int, service.SweepCell) error { return nil }

// BenchmarkServiceSweepWarm measures the same axis replayed from the
// per-cell cache.
func BenchmarkServiceSweepWarm(b *testing.B) {
	e := service.NewEngine(service.Options{})
	base := heraModel(b, costmodel.Scenario3, 0.1)
	ctx := context.Background()
	models := make([]core.Model, 16)
	for j, l := range xmath.Logspace(1e-12, 1e-8, 16) {
		m := base
		m.LambdaInd = l
		models[j] = m
	}
	if err := e.SweepStream(ctx, models, optimize.PatternOptions{}, false, discardCell); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := e.SweepStream(ctx, models, optimize.PatternOptions{}, false, func(_ int, c service.SweepCell) error {
			if !c.Cached {
				return errors.New("warm sweep missed the cache")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetLoadGen is the fleet load generator: a 3-replica fleet
// behind the consistent-hash router, driven concurrently with a fixed
// mix of requests over 16 distinct models (warmed once, so the steady
// state measured is the sharded-cache serving path — the fleet's whole
// point). Beyond the gated ns/op (≈ mean request latency divided by the
// load-generator parallelism), it reports fleet throughput (qps),
// client-observed tail latency (p50-ns, p99-ns) and the replica
// connections the router opened per request (conns/op), which bench.sh
// records into BENCH_<N>.json.
func BenchmarkFleetLoadGen(b *testing.B) { fleetLoad(b, 1) }

// BenchmarkFleetConns drives the same fleet from 16 callers per CPU,
// where a forwarding pool too small for the concurrency shows up as
// conns/op. Ungated: TestRouterReusesReplicaConnections pins the count.
func BenchmarkFleetConns(b *testing.B) { fleetLoad(b, 16) }

// fleetLoad serves b.N cached optimize requests through a 3-replica
// fleet from callersPerCPU callers per CPU, each client connection kept
// idle between its requests.
func fleetLoad(b *testing.B, callersPerCPU int) {
	var opened atomic.Int64
	peers := make(map[string]string, 3)
	for i := 1; i <= 3; i++ {
		ts := httptest.NewUnstartedServer(service.NewServer(service.NewEngine(service.Options{})))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened.Add(1)
			}
		}
		ts.Start()
		defer ts.Close()
		peers[fmt.Sprintf("p%d", i)] = ts.URL
	}
	rt, err := fleet.NewRouter(fleet.RouterOptions{Peers: peers, HedgeAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()
	client := front.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = callersPerCPU * runtime.GOMAXPROCS(0)

	bodies := make([][]byte, 16)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(
			`{"model":{"platform":"hera","scenario":3,"alpha":%.17g}}`,
			0.05+float64(i)*0.01))
	}
	do := func(body []byte) time.Duration {
		start := time.Now()
		resp, err := client.Post(front.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return time.Since(start)
	}
	for _, body := range bodies {
		do(body) // warm every shard once
	}

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	var n atomic.Uint64
	opened.Store(0)
	b.SetParallelism(callersPerCPU)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 256)
		for pb.Next() {
			i := n.Add(1) - 1
			local = append(local, do(bodies[i%uint64(len(bodies))]))
		}
		mu.Lock()
		latencies = append(latencies, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(len(latencies))/b.Elapsed().Seconds(), "qps")
	b.ReportMetric(float64(latencies[len(latencies)/2]), "p50-ns")
	b.ReportMetric(float64(latencies[len(latencies)*99/100]), "p99-ns")
	b.ReportMetric(float64(opened.Load())/float64(len(latencies)), "conns/op")
}
