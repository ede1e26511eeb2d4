package hetero

import (
	"math"
	"slices"
	"strings"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/xmath"
)

// Warm-vs-cold agreement bounds, mirroring the single-level and two-level
// sweep tests: the overhead is determined to ~Tol², the minimizer's
// position only to ~√Tol on flat basins.
const (
	sweepTolH  = 1e-8
	sweepTolXY = 1e-4
)

// heraAccel is the reference two-group topology of the heterogeneous
// study: Hera's CPU tiles plus a faster, less reliable accelerator group
// with a cheaper (smaller-memory) checkpoint.
func heraAccel(comm float64) platform.Topology {
	hera := platform.Hera()
	return platform.Topology{
		Name: "hera+accel",
		Comm: comm,
		Groups: []platform.Group{
			{Name: "cpu", LambdaInd: hera.LambdaInd, FailStopFraction: hera.FailStopFraction,
				SilentFraction: hera.SilentFraction, Size: hera.Processors, Speed: 1,
				CheckpointCost: hera.CheckpointCost, VerificationCost: hera.VerificationCost},
			{Name: "accel", LambdaInd: 50 * hera.LambdaInd, FailStopFraction: hera.FailStopFraction,
				SilentFraction: hera.SilentFraction, Size: 128, Speed: 8,
				CheckpointCost: 60, VerificationCost: 4},
		},
	}
}

// threeTier adds a burst-buffer-style slow third tier.
func threeTier(comm float64) platform.Topology {
	tp := heraAccel(comm)
	tp.Name = "three-tier"
	tp.Groups = append(tp.Groups, platform.Group{
		Name: "bb", LambdaInd: 5e-9, FailStopFraction: 0.2, SilentFraction: 0.8,
		Size: 2048, Speed: 0.5, CheckpointCost: 900, VerificationCost: 10,
	})
	return tp
}

func compile(t *testing.T, tp platform.Topology, sc costmodel.Scenario, alpha, downtime float64) core.HeteroModel {
	t.Helper()
	hm, err := CompileTopology(tp, sc, alpha, downtime)
	if err != nil {
		t.Fatalf("CompileTopology: %v", err)
	}
	return hm
}

// TestSingleGroupDegeneracy pins the central refactor invariant: a
// one-group topology with zero comm reproduces the classical
// optimize.OptimalPattern answer (T*, P*, H) bit-identically, for every
// sweep-figure scenario and for both the capacity-clamped and the
// default search box.
func TestSingleGroupDegeneracy(t *testing.T) {
	hera := platform.Hera()
	for _, sc := range []costmodel.Scenario{costmodel.Scenario1, costmodel.Scenario3, costmodel.Scenario5} {
		hm := compile(t, platform.SingleGroup(hera), sc, 0.1, 3600)
		got, err := OptimalPattern(hm, PatternOptions{})
		if err != nil {
			t.Fatalf("%v: OptimalPattern: %v", sc, err)
		}
		ref, err := optimize.OptimalPattern(hm.Groups[0].Model,
			optimize.PatternOptions{PMax: hera.Processors})
		if err != nil {
			t.Fatalf("%v: reference: %v", sc, err)
		}
		if got.Active != 1 || len(got.Groups) != 1 {
			t.Fatalf("%v: expected one active group, got %d", sc, got.Active)
		}
		gp := got.Groups[0]
		if gp.T != ref.T || gp.P != ref.P || got.Overhead != ref.Overhead ||
			gp.GroupOverhead != ref.Overhead || gp.AtPBound != ref.AtPBound {
			t.Errorf("%v: degeneracy not bit-identical:\n got (T=%v P=%v H=%v atB=%t)\nwant (T=%v P=%v H=%v atB=%t)",
				sc, gp.T, gp.P, got.Overhead, gp.AtPBound, ref.T, ref.P, ref.Overhead, ref.AtPBound)
		}
		if gp.Fraction != 1 {
			t.Errorf("%v: single-group fraction = %v, want exactly 1", sc, gp.Fraction)
		}
	}
}

// bruteForce enumerates every non-empty active set, solving each group
// with the identical per-group reference calls and assembling the
// harmonic overhead in group-index order — the independent oracle the
// scan is pinned against.
func bruteForce(t *testing.T, hm core.HeteroModel, opts PatternOptions) PatternResult {
	t.Helper()
	n := len(hm.Groups)
	best := PatternResult{Overhead: math.Inf(1)}
	for mask := 1; mask < 1<<n; mask++ {
		active := 0
		for g := 0; g < n; g++ {
			if mask&(1<<g) != 0 {
				active++
			}
		}
		solves := make([]groupSolve, 0, active)
		feasible := true
		for g := 0; g < n; g++ {
			if mask&(1<<g) == 0 {
				continue
			}
			m, err := hm.ActiveModel(g, active)
			if err != nil {
				t.Fatalf("ActiveModel(%d, %d): %v", g, active, err)
			}
			res, err := optimize.OptimalPattern(m, opts.groupOptions(hm.Groups[g].Size))
			if err != nil {
				feasible = false
				break
			}
			solves = append(solves, groupSolve{group: g, res: res})
		}
		if !feasible {
			continue
		}
		cand := assemble(solves)
		if cand.Overhead < best.Overhead {
			best = cand
		}
	}
	return best
}

// TestBruteForcePinning pins the G-scan + greedy subset selection against
// the exhaustive subset enumeration on three multi-group scenarios with
// different optimal shapes.
func TestBruteForcePinning(t *testing.T) {
	cases := []struct {
		name  string
		hm    core.HeteroModel
		wantG int // sanity expectation on the optimal active count
	}{
		// Zero comm: adding the second group is free, both always work.
		{"two-group-comm0", compile(t, heraAccel(0), costmodel.Scenario1, 0.1, 3600), 2},
		// A comm term high enough that cooperation no longer pays: the
		// fast accelerator should carry the job alone.
		{"two-group-comm-high", compile(t, heraAccel(3e-3), costmodel.Scenario1, 0.1, 3600), 1},
		// Three tiers under a moderate comm term, different scenario.
		{"three-tier", compile(t, threeTier(2e-5), costmodel.Scenario3, 0.1, 3600), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := PatternOptions{}
			got, err := OptimalPattern(tc.hm, opts)
			if err != nil {
				t.Fatalf("OptimalPattern: %v", err)
			}
			want := bruteForce(t, tc.hm, opts)
			if got.Active != want.Active || len(got.Groups) != len(want.Groups) {
				t.Fatalf("active set size: got %d, want %d", got.Active, want.Active)
			}
			if tc.wantG != 0 && got.Active != tc.wantG {
				t.Errorf("optimal active count = %d, expected %d for this regime", got.Active, tc.wantG)
			}
			if got.Overhead != want.Overhead {
				t.Errorf("combined H: got %v, want %v (brute force)", got.Overhead, want.Overhead)
			}
			for i := range got.Groups {
				g, w := got.Groups[i], want.Groups[i]
				if g.Group != w.Group || g.T != w.T || g.P != w.P || g.GroupOverhead != w.GroupOverhead {
					t.Errorf("group plan %d: got %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

// TestAllocationBoxScan pins the closed-form harmonic split against a
// fine grid scan over the work fraction of a two-group run: no split on
// the grid beats the equalized-completion optimum, and the grid's best
// approaches it.
func TestAllocationBoxScan(t *testing.T) {
	hm := compile(t, heraAccel(1e-5), costmodel.Scenario1, 0.1, 3600)
	got, err := OptimalPattern(hm, PatternOptions{})
	if err != nil {
		t.Fatalf("OptimalPattern: %v", err)
	}
	if got.Active != 2 {
		t.Fatalf("expected both groups active, got %d", got.Active)
	}
	a0 := got.Groups[0].GroupOverhead
	a1 := got.Groups[1].GroupOverhead
	bestGrid := math.Inf(1)
	const cells = 20001
	for i := 1; i < cells; i++ {
		x := float64(i) / cells
		mk := math.Max(x*a0, (1-x)*a1)
		if mk < bestGrid {
			bestGrid = mk
		}
	}
	if bestGrid < got.Overhead*(1-1e-12) {
		t.Errorf("fraction grid beat the harmonic optimum: %v < %v", bestGrid, got.Overhead)
	}
	if d := xmath.RelDiff(bestGrid, got.Overhead); d > 1e-3 {
		t.Errorf("fine fraction grid should approach H*: got %v vs %v (rel %g)", bestGrid, got.Overhead, d)
	}
	// Completion times equalize: x_g·A_g = H for every active group.
	for _, gp := range got.Groups {
		if d := xmath.RelDiff(gp.Fraction*gp.GroupOverhead, got.Overhead); d > 1e-12 {
			t.Errorf("group %d completion time off the equalized makespan by %g", gp.Group, d)
		}
	}
	sum := 0.0
	for _, gp := range got.Groups {
		sum += gp.Fraction
	}
	if d := math.Abs(sum - 1); d > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

// TestSweepWarmMatchesCold is the warm-vs-cold property test along the
// comm axis: one warm chain over smoothly varying comm terms agrees with
// per-cell cold solves on the active set and the combined overhead.
func TestSweepWarmMatchesCold(t *testing.T) {
	comms := xmath.Logspace(1e-7, 1e-3, 12)
	models := make([]core.HeteroModel, len(comms))
	for i, c := range comms {
		models[i] = compile(t, heraAccel(c), costmodel.Scenario1, 0.1, 3600)
	}
	chain := NewSweepSolver(SweepOptions{})
	warm := make([]PatternResult, len(models))
	for i, hm := range models {
		res, err := chain.Solve(hm)
		if err != nil {
			t.Fatalf("warm batch: %v", err)
		}
		warm[i] = res
	}
	for i, hm := range models {
		cold, err := OptimalPattern(hm, PatternOptions{})
		if err != nil {
			t.Fatalf("cell %d cold: %v", i, err)
		}
		w := warm[i]
		if w.Active != cold.Active {
			t.Errorf("cell %d: warm active=%d, cold=%d", i, w.Active, cold.Active)
			continue
		}
		if d := xmath.RelDiff(w.Overhead, cold.Overhead); d > sweepTolH {
			t.Errorf("cell %d: overhead disagrees by %.3g: warm %g vs cold %g",
				i, d, w.Overhead, cold.Overhead)
		}
		for j := range w.Groups {
			if w.Groups[j].Group != cold.Groups[j].Group {
				t.Errorf("cell %d: warm selected group %d, cold %d", i, w.Groups[j].Group, cold.Groups[j].Group)
			}
			if d := xmath.RelDiff(w.Groups[j].P, cold.Groups[j].P); d > sweepTolXY {
				t.Errorf("cell %d group %d: P* disagrees by %.3g", i, j, d)
			}
		}
	}
	st := func() optimize.SweepStats {
		s := NewSweepSolver(SweepOptions{})
		for _, hm := range models {
			if _, err := s.Solve(hm); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}()
	if st.WarmSolves == 0 {
		t.Errorf("comm-axis chain never warm-solved: %+v", st)
	}
}

// TestSweepColdModeBitIdentical pins the escape hatch: Cold mode is
// bit-identical to per-cell OptimalPattern calls.
func TestSweepColdModeBitIdentical(t *testing.T) {
	comms := []float64{1e-6, 1e-5, 1e-4}
	models := make([]core.HeteroModel, len(comms))
	for i, c := range comms {
		models[i] = compile(t, heraAccel(c), costmodel.Scenario3, 0.1, 3600)
	}
	chain := NewSweepSolver(SweepOptions{Cold: true})
	batch := make([]PatternResult, len(models))
	for i, hm := range models {
		res, err := chain.Solve(hm)
		if err != nil {
			t.Fatalf("cold batch: %v", err)
		}
		batch[i] = res
	}
	for i, hm := range models {
		ref, err := OptimalPattern(hm, PatternOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := batch[i]
		if b.Active != ref.Active || b.Overhead != ref.Overhead {
			t.Errorf("cell %d: cold-mode batch differs: H %v vs %v", i, b.Overhead, ref.Overhead)
		}
		for j := range b.Groups {
			if b.Groups[j] != ref.Groups[j] {
				t.Errorf("cell %d group %d: %+v vs %+v", i, j, b.Groups[j], ref.Groups[j])
			}
		}
	}
}

// TestSweepWarmFlagMeansEveryGroupWarm pins PatternResult.Warm on the
// sweep solver: a cell is warm exactly when every per-group solve of it
// was accepted in its warm bracket, read off the chain counters. On a
// comm axis from 0 the first cell runs only full-box scans and the
// second opens the two-group chains, so neither is warm; a later cell
// is, and a Cold chain has no warm cell.
func TestSweepWarmFlagMeansEveryGroupWarm(t *testing.T) {
	comms := []float64{0, 1e-6, 4e-6, 1e-5}
	for _, cold := range []bool{false, true} {
		s := NewSweepSolver(SweepOptions{Cold: cold})
		prev := s.Stats()
		var warm []bool
		for i, c := range comms {
			res, err := s.Solve(compile(t, heraAccel(c), costmodel.Scenario1, 0.1, 3600))
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			groupWarm, groupFull := st.WarmSolves-prev.WarmSolves, st.ColdSolves-prev.ColdSolves
			if want := groupFull == 0 && groupWarm > 0; res.Warm != want {
				t.Errorf("Cold %t, cell %d: Warm = %t after %d warm and %d full-box group solves",
					cold, i, res.Warm, groupWarm, groupFull)
			}
			warm = append(warm, res.Warm)
			prev = st
		}
		switch {
		case warm[0] || warm[1]:
			t.Errorf("Cold %t: warm flags %v, want the first two cells not warm", cold, warm)
		case !cold && !slices.Contains(warm[2:], true):
			t.Errorf("warm chain: flags %v, want a later cell warm", warm)
		case cold && slices.Contains(warm, true):
			t.Errorf("Cold chain: flags %v, want no warm cell", warm)
		}
	}
}

// TestEvalsCountEachSolveOnce pins the solver-effort accounting: a
// per-group solve that several active counts reuse (at zero comm, every
// one) counts its evaluations once, and the sweep solver's Cold-mode
// stats count per-group solves, not active groups.
func TestEvalsCountEachSolveOnce(t *testing.T) {
	// refEvals is the cost of the distinct per-group solves: one per
	// group and distinct comm charge.
	refEvals := func(hm core.HeteroModel) int {
		total := 0
		charges := map[float64]bool{}
		for active := 1; active <= len(hm.Groups); active++ {
			if charges[hm.Comm*float64(active-1)] {
				continue
			}
			charges[hm.Comm*float64(active-1)] = true
			for g := range hm.Groups {
				m, err := hm.ActiveModel(g, active)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := optimize.OptimalPattern(m, PatternOptions{}.groupOptions(hm.Groups[g].Size))
				if err != nil {
					t.Fatal(err)
				}
				total += ref.Evals
			}
		}
		return total
	}

	free := compile(t, heraAccel(0), costmodel.Scenario1, 0.1, 3600)
	res, err := OptimalPattern(free, PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := refEvals(free); res.Evals != want {
		t.Errorf("zero comm: Evals = %d, want %d (one solve per group)", res.Evals, want)
	}

	comm := compile(t, heraAccel(1e-5), costmodel.Scenario1, 0.1, 3600)
	s := NewSweepSolver(SweepOptions{Cold: true})
	res, err = s.Solve(comm)
	if err != nil {
		t.Fatal(err)
	}
	want := refEvals(comm)
	st := s.Stats()
	if st.ColdSolves != 4 || st.WarmSolves != 0 || st.Fallbacks != 0 {
		t.Errorf("cold stats = %+v, want 4 per-group cold solves (2 groups × 2 comm charges)", st)
	}
	if res.Evals != want || st.Evals != want {
		t.Errorf("cold mode: result Evals %d, stats Evals %d, want %d", res.Evals, st.Evals, want)
	}
}

// TestCompileTopologyDegenerateProfile pins that a speed-1 zero-comm
// group compiles to the plain Amdahl profile — same cache key as the
// classical model, so the hg1| cache layer and the m1| layer share
// frozen kernels for the degenerate case.
func TestCompileTopologyDegenerateProfile(t *testing.T) {
	hm := compile(t, platform.SingleGroup(platform.Hera()), costmodel.Scenario1, 0.1, 3600)
	key, err := hm.Groups[0].Model.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(key, "amdahl:") || strings.Contains(key, "amdahlcomm") {
		t.Errorf("degenerate group should compile to plain Amdahl, key = %q", key)
	}
	hk, err := hm.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hk, "hg1|") {
		t.Errorf("hetero key namespace: got %q, want hg1| prefix", hk)
	}

	// α = 0 keeps the perfectly-parallel dispatch.
	hm0 := compile(t, platform.SingleGroup(platform.Hera()), costmodel.Scenario1, 0, 3600)
	key0, err := hm0.Groups[0].Model.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(key0, "pp") {
		t.Errorf("α=0 degenerate group should compile to perfectly-parallel, key = %q", key0)
	}
}

// TestHeteroModelValidateAndKey exercises the hetero model's own
// validation and key canonicalization edges.
func TestHeteroModelValidateAndKey(t *testing.T) {
	hm := compile(t, heraAccel(1e-5), costmodel.Scenario1, 0.1, 3600)

	if err := (core.HeteroModel{}).Validate(); err == nil {
		t.Error("empty hetero model validated")
	}
	bad := hm
	bad.Comm = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN comm validated")
	}
	if _, err := bad.CacheKey(); err == nil {
		t.Error("NaN comm keyed")
	}
	bad = hm
	bad.Groups = append([]core.HeteroGroup{}, hm.Groups...)
	bad.Groups[0].Size = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite group size validated")
	}

	k1, err := hm.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	other := compile(t, heraAccel(2e-5), costmodel.Scenario1, 0.1, 3600)
	k2, err := other.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("different comm terms share a cache key")
	}

	// Active-count plumbing: out-of-range arguments fail loudly.
	if _, err := hm.ActiveModel(0, 0); err == nil {
		t.Error("active=0 accepted")
	}
	if _, err := hm.ActiveModel(5, 1); err == nil {
		t.Error("group index out of range accepted")
	}
	// G = 1 returns the group's model unchanged (same profile value).
	m, err := hm.ActiveModel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Profile != hm.Groups[0].Model.Profile {
		t.Error("single-active model must be returned unchanged")
	}
}
