package hetero

import (
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/speedup"
)

// unitInterval folds any finite float into [0, 1); false for NaN and
// infinities.
func unitInterval(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	_, frac := math.Modf(math.Abs(x))
	return frac, true
}

// fuzzGroup draws one group from five raw inputs: a size in [2, 1e6]
// processors (log-uniform), a speed factor in [1/8, 8], a sequential
// fraction in [0, 1], a fail-stop fraction in [0, 1] and a cost scale in
// [0.1, 10] on Hera's checkpoint and verification costs, at Hera's error
// rate and Table III scenario sc with a one-hour downtime.
func fuzzGroup(sc costmodel.Scenario, raw [5]float64) (core.HeteroGroup, bool) {
	var u [5]float64
	for i, x := range raw {
		v, ok := unitInterval(x)
		if !ok {
			return core.HeteroGroup{}, false
		}
		u[i] = v
	}
	hera := platform.Hera()
	scale := math.Pow(10, 2*u[4]-1)
	g := platform.Group{
		Name: "g", LambdaInd: hera.LambdaInd,
		FailStopFraction: u[3], SilentFraction: 1 - u[3],
		Size: math.Round(2 * math.Pow(5e5, u[0])), Speed: math.Pow(8, 2*u[1]-1),
		CheckpointCost: scale * hera.CheckpointCost, VerificationCost: scale * hera.VerificationCost,
	}
	res, err := g.Platform().Resilience(sc, 3600)
	if err != nil {
		return core.HeteroGroup{}, false
	}
	profile, err := speedup.NewAmdahlComm(u[2], g.Speed, 0)
	if err != nil {
		return core.HeteroGroup{}, false
	}
	m := core.Model{LambdaInd: g.LambdaInd, FailStopFrac: g.FailStopFraction, SilentFrac: g.SilentFraction,
		Res: res, Profile: profile}
	return core.HeteroGroup{Model: m, Size: g.Size}, m.Validate() == nil
}

// FuzzHeteroDivisibleLoad holds hetero.OptimalPattern to the
// divisible-load optimality conditions of Cao, Wu and Robertazzi
// (arXiv:1902.01952) over generated topologies of 1 to 4 groups, each
// group's size, speed, sequential fraction, fail-stop fraction and cost
// scale drawn from its own five inputs, with a comm term of 0 or
// log-uniform in [1e-7, 1e-3]. At the answer every active group finishes
// together (x_g·A_g equals H within 1e-12, relative), the shares sum to
// 1 within 1e-12, and moving a small share of work between two active
// groups raises the makespan max_g x_g·A_g. With comm = 0 every group
// whose own solve is feasible is active unless the share it would take,
// H/A_g, is below 1e-15 (corpus entry negligible-group-share: a group at
// A = 1.5e14 beside three at A ≤ 0.66 changes H by less than rounding),
// no infeasible group is, and H is at most the best single group's
// overhead. A topology holds at most 4 groups and each group at most 1e6
// processors, which bounds the work of one input to 16 single-group
// solves.
func FuzzHeteroDivisibleLoad(f *testing.F) {
	f.Add(uint8(1), uint8(0), false, 0.0,
		0.9, 0.5, 0.1, 0.2188, 0.5, 0.3, 0.9, 0.1, 0.2188, 0.3,
		0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(2), true, 0.5,
		0.9, 0.5, 0.1, 0.2188, 0.5, 0.3, 0.9, 0.1, 0.2188, 0.3,
		0.6, 0.2, 0.05, 0.9, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(4), true, 0.9,
		0.99, 0.5, 0.001, 0.5, 0.1, 0.2, 0.95, 0.3, 0.1, 0.6,
		0.5, 0.1, 0.9, 0.0, 0.9, 0.7, 0.7, 0.0, 1.0, 0.5)
	f.Add(uint8(0), uint8(5), false, 0.0,
		0.4, 0.5, 1.0, 0.2188, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, n, sc uint8, withComm bool, comm float64,
		a0, a1, a2, a3, a4, b0, b1, b2, b3, b4, c0, c1, c2, c3, c4, d0, d1, d2, d3, d4 float64) {
		scenario := costmodel.Scenario(1 + int(sc)%6)
		raws := [][5]float64{{a0, a1, a2, a3, a4}, {b0, b1, b2, b3, b4}, {c0, c1, c2, c3, c4}, {d0, d1, d2, d3, d4}}
		hm := core.HeteroModel{}
		for _, raw := range raws[:1+int(n)%4] {
			g, ok := fuzzGroup(scenario, raw)
			if !ok {
				return
			}
			hm.Groups = append(hm.Groups, g)
		}
		if withComm {
			u, ok := unitInterval(comm)
			if !ok {
				return
			}
			hm.Comm = math.Pow(10, -7+4*u)
		}
		if hm.Validate() != nil {
			return
		}
		res, err := OptimalPattern(hm, PatternOptions{})
		if err != nil {
			return
		}
		sum, makespan := 0.0, 0.0
		for _, gp := range res.Groups {
			sum += gp.Fraction
			finish := gp.Fraction * gp.GroupOverhead
			makespan = math.Max(makespan, finish)
			if d := math.Abs(finish-res.Overhead) / res.Overhead; !(d <= 1e-12) {
				t.Fatalf("group %d finishes at %.17g, H = %.17g (%.2g apart)", gp.Group, finish, res.Overhead, d)
			}
		}
		if d := math.Abs(sum - 1); !(d <= 1e-12) {
			t.Fatalf("shares sum to %.17g", sum)
		}
		for i := 1; i < len(res.Groups); i++ {
			gi, gj := res.Groups[i-1], res.Groups[i]
			delta := 1e-6 * math.Min(gi.Fraction, gj.Fraction)
			moved := math.Max((gi.Fraction+delta)*gi.GroupOverhead, (gj.Fraction-delta)*gj.GroupOverhead)
			if !(moved > makespan) {
				t.Fatalf("moving %.3g of the work from group %d to %d leaves the makespan at %.17g, not above %.17g",
					delta, gj.Group, gi.Group, moved, makespan)
			}
		}
		if hm.Comm != 0 {
			return
		}
		best := math.Inf(1)
		for g, grp := range hm.Groups {
			r, err := optimize.OptimalPattern(grp.Model, PatternOptions{}.groupOptions(grp.Size))
			if err != nil {
				if activeIn(res, g) {
					t.Fatalf("comm = 0: group %d is infeasible (%v) but active", g, err)
				}
				continue
			}
			best = math.Min(best, r.Overhead)
			// A group whose share H/A_g would fall below rounding leaves
			// 1/Σ 1/A_g unchanged in float64, so the set without it ties.
			if !activeIn(res, g) && res.Overhead/r.Overhead >= 1e-15 {
				t.Fatalf("comm = 0: group %d is feasible (A = %.17g, share %.3g) but not active in %+v",
					g, r.Overhead, res.Overhead/r.Overhead, res.Groups)
			}
		}
		if !(res.Overhead <= best) {
			t.Fatalf("comm = 0: H = %.17g above the best single group's %.17g", res.Overhead, best)
		}
	})
}

// activeIn reports whether group g has a share of the plan.
func activeIn(res PatternResult, g int) bool {
	for _, gp := range res.Groups {
		if gp.Group == g {
			return true
		}
	}
	return false
}
