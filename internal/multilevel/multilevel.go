// Package multilevel implements the two-level resilience pattern the
// paper lists as future work (Section V, "multi-level resilience
// protocols"). This is an EXTENSION beyond the paper's evaluation; it is
// exercised by its own tests and benchmarks and documented in DESIGN.md.
//
// # Protocol
//
// A two-level pattern executes K segments of length T. Each segment ends
// with a verification V_P and a cheap level-1 (in-memory) checkpoint C1;
// the pattern ends with an expensive level-2 (disk) checkpoint C2.
//
//   - A silent error is caught by the segment's verification and rolls
//     back to the previous in-memory checkpoint: only the current segment
//     is re-executed (cheap rollback, cost R1).
//   - A fail-stop error loses the node's memory, so in-memory checkpoints
//     are useless: after a downtime the pattern restarts from the last
//     disk checkpoint (cost R2) and re-executes from its beginning.
//
// # First-order optimum
//
// With per-work overhead
//
//	H ≈ H(P)·(1 + (V+C1)/T + λs·T + C2/(K·T) + λf·K·T/2)
//
// the two decision variables separate in T and U = K·T:
//
//	T* = sqrt((V_P + C1)/λs)      (the silent-error Young/Daly)
//	U* = sqrt(2·C2/λf)            (the fail-stop Young/Daly)
//	K* = U*/T*
//
// recovering exactly Young's formula on each level — the natural
// two-level generalization of the paper's Theorem 1.
package multilevel

import (
	"errors"
	"fmt"
	"math"

	"amdahlyd/internal/core"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/sim"
)

// Costs holds the two-level resilience costs at a fixed processor count.
type Costs struct {
	// V is the verification cost.
	V float64
	// C1 and R1 are the level-1 (in-memory) checkpoint and recovery.
	C1, R1 float64
	// C2 and R2 are the level-2 (disk) checkpoint and recovery.
	C2, R2 float64
	// D is the downtime after a fail-stop error.
	D float64
}

// Validate rejects negative or non-finite costs and a level-2 checkpoint
// cheaper than level 1 (which would make the second level pointless).
func (c Costs) Validate() error {
	for _, v := range []float64{c.V, c.C1, c.R1, c.C2, c.R2, c.D} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("multilevel: negative or non-finite cost")
		}
	}
	if !(c.C2 >= c.C1) {
		return fmt.Errorf("multilevel: level-2 checkpoint (%g) cheaper than level-1 (%g)",
			c.C2, c.C1)
	}
	return nil
}

// Pattern is a two-level pattern choice.
type Pattern struct {
	// T is the segment length (seconds).
	T float64
	// K is the number of segments per disk checkpoint.
	K int
}

// Plan is a solved two-level configuration with its predicted overhead.
type Plan struct {
	Pattern
	// PredictedH is the first-order expected execution overhead.
	PredictedH float64
}

// FirstOrder returns the first-order optimum for the given costs,
// platform rates (λf, λs at the target processor count) and error-free
// overhead hOfP = H(P).
//
// The separable analysis gives the continuous optimum T* = sqrt((V+C1)/λs),
// U* = sqrt(2·C2/λf), K* = U*/T* — and K* is also the exact continuous
// minimizer of the T-re-optimized objective min_T H(T, K): the product
// (V + C1 + C2/K)·(λs + λf·K/2) that min_T H = H(P)·(1 + 2·sqrt(·))
// depends on is stationary at exactly K*² = 2·C2·λs/((V+C1)·λf). The
// integer optimum is therefore floor or ceil of K*, but each candidate
// must be scored at its own re-optimized segment length
// (OptimalSegmentLength): the separable T* is optimal only for the
// continuous K*, and a plan pinned at the separable T can sit far above
// the true first-order optimum when K* rounds hard (near-half-integer
// K*, or the K* < 1 regime where K clamps to 1 and the optimal segment
// degenerates to the single-level Young/Daly period).
func FirstOrder(c Costs, lambdaF, lambdaS, hOfP float64) (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	// An infinite rate passes the positivity test but zeroes a segment
	// length, leaving K = U/T undefined.
	if !(lambdaF > 0) || !(lambdaS > 0) || math.IsInf(lambdaF, 0) || math.IsInf(lambdaS, 0) {
		return Plan{}, errors.New("multilevel: both error rates must be positive and finite")
	}
	if !(hOfP > 0) {
		return Plan{}, errors.New("multilevel: H(P) must be positive")
	}
	t := math.Sqrt((c.V + c.C1) / lambdaS)
	u := math.Sqrt(2 * c.C2 / lambdaF)
	kReal := u / t
	if kReal < 1 {
		kReal = 1
	}
	lo, hi := math.Floor(kReal), math.Ceil(kReal)
	best := planAtK(c, int(lo), lambdaF, lambdaS, hOfP)
	if hi != lo {
		if alt := planAtK(c, int(hi), lambdaF, lambdaS, hOfP); alt.PredictedH < best.PredictedH {
			best = alt
		}
	}
	return best, nil
}

// planAtK is the first-order optimum restricted to a fixed integer K: the
// re-optimized segment length and its overhead.
func planAtK(c Costs, k int, lambdaF, lambdaS, hOfP float64) Plan {
	t := OptimalSegmentLength(c, k, lambdaF, lambdaS)
	return Plan{
		Pattern:    Pattern{T: t, K: k},
		PredictedH: overhead(c, t, k, lambdaF, lambdaS, hOfP),
	}
}

// overhead is the first-order expected execution overhead of a two-level
// pattern.
func overhead(c Costs, t float64, k int, lambdaF, lambdaS, hOfP float64) float64 {
	if t <= 0 || k < 1 {
		return math.Inf(1)
	}
	u := float64(k) * t
	return hOfP * (1 +
		(c.V+c.C1)/t +
		lambdaS*t +
		c.C2/u +
		lambdaF*u/2)
}

// Overhead exposes the first-order overhead formula for a given pattern.
func Overhead(c Costs, p Pattern, lambdaF, lambdaS, hOfP float64) float64 {
	return overhead(c, p.T, p.K, lambdaF, lambdaS, hOfP)
}

// SingleLevelCosts derives the two-level cost set from a core model at a
// given processor count, treating the model's checkpoint as the disk
// level and inMemFraction·C_P as the in-memory level.
func SingleLevelCosts(m core.Model, p, inMemFraction float64) (Costs, error) {
	// The negated form catches NaN (which compares false both ways and
	// would otherwise flow into every derived cost).
	if !(inMemFraction >= 0 && inMemFraction <= 1) {
		return Costs{}, fmt.Errorf("multilevel: in-memory fraction %g outside [0,1]", inMemFraction)
	}
	c2 := m.Res.Checkpoint.At(p)
	r2 := m.Res.Recovery.At(p)
	return Costs{
		V:  m.Res.Verification.At(p),
		C1: inMemFraction * c2,
		R1: inMemFraction * r2,
		C2: c2,
		R2: r2,
		D:  m.Res.Downtime,
	}, nil
}

// Simulator plays the two-level protocol by Monte-Carlo.
type Simulator struct {
	costs   Costs
	lambdaF float64
	lambdaS float64
	pattern Pattern
}

// NewSimulator validates and builds a simulator. A pattern so deep in
// the failure-dominated regime that simulating it cannot finish in
// practical time is refused with sim.ErrErrorPressure, under the
// single-level simulators' budget sim.MaxSimIters on the expected
// iterations per pattern: K segments, each tried e^{λs·T} times, the
// whole pattern replayed e^{λf·(K·(T+V+C1)+C2)} times, and every
// fail-stop followed by ~e^{λf·R2} disk recovery tries.
func NewSimulator(c Costs, p Pattern, lambdaF, lambdaS float64) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !(p.T > 0) || math.IsInf(p.T, 0) || p.K < 1 {
		return nil, fmt.Errorf("multilevel: invalid pattern %+v", p)
	}
	if !(lambdaF >= 0) || !(lambdaS >= 0) {
		return nil, errors.New("multilevel: negative rates")
	}
	k := float64(p.K)
	attempts := math.Exp(lambdaF*(k*(p.T+c.V+c.C1)+c.C2) + lambdaS*p.T)
	if iters := k * attempts * (1 + math.Exp(lambdaF*c.R2)); !(iters <= sim.MaxSimIters) {
		return nil, sim.ErrErrorPressure
	}
	return &Simulator{costs: c, lambdaF: lambdaF, lambdaS: lambdaS, pattern: p}, nil
}

// Stats aggregates a simulated two-level run.
type Stats struct {
	Patterns         int64
	Elapsed          float64
	FailStops        int64
	SilentDetections int64
	DiskRecoveries   int64
	MemRecoveries    int64
}

// failStopIn samples a fail-stop strike within a window.
func (s *Simulator) failStopIn(window float64, r *rng.Rand) (float64, bool) {
	if s.lambdaF == 0 {
		return 0, false
	}
	t := r.Exp(s.lambdaF)
	if t < window {
		return t, true
	}
	return 0, false
}

// diskRestart charges a downtime plus a completed level-2 recovery
// (fail-stop errors can strike the recovery itself).
func (s *Simulator) diskRestart(r *rng.Rand, st *Stats) {
	st.Elapsed += s.costs.D
	for {
		st.DiskRecoveries++
		if lost, struck := s.failStopIn(s.costs.R2, r); struck {
			st.FailStops++
			st.Elapsed += lost + s.costs.D
			continue
		}
		st.Elapsed += s.costs.R2
		return
	}
}

// SimulatePattern plays one two-level pattern to completion.
func (s *Simulator) SimulatePattern(r *rng.Rand, st *Stats) {
	for !s.attemptPattern(r, st) {
	}
	st.Patterns++
}

// attemptPattern plays the K segments and the disk checkpoint once,
// restarting segments internally as needed; it reports false when the
// final disk checkpoint failed and the whole pattern must be replayed.
func (s *Simulator) attemptPattern(r *rng.Rand, st *Stats) bool {
	c := s.costs
	seg := 0
	for seg < s.pattern.K {
		// One segment: T + V, then an in-memory checkpoint C1. C1 is
		// charged after every segment, the last one included (before the
		// disk checkpoint C2), as the first-order overhead's (V+C1)/T
		// term charges it.
		window := s.pattern.T + c.V
		if lost, struck := s.failStopIn(window, r); struck {
			st.FailStops++
			st.Elapsed += lost
			s.diskRestart(r, st)
			seg = 0
			continue
		}
		if r.Float64() < -math.Expm1(-s.lambdaS*s.pattern.T) {
			// Silent error: verification catches it; roll back to the
			// previous in-memory checkpoint (or pattern start).
			st.SilentDetections++
			st.Elapsed += window
			if lost, struck := s.failStopIn(c.R1, r); struck {
				st.FailStops++
				st.Elapsed += lost
				s.diskRestart(r, st)
				seg = 0
				continue
			}
			st.MemRecoveries++
			st.Elapsed += c.R1
			continue // retry the same segment
		}
		st.Elapsed += window
		if lost, struck := s.failStopIn(c.C1, r); struck {
			st.FailStops++
			st.Elapsed += lost
			s.diskRestart(r, st)
			seg = 0
			continue
		}
		st.Elapsed += c.C1
		seg++
	}
	// Disk checkpoint at the end of the pattern.
	if lost, struck := s.failStopIn(c.C2, r); struck {
		st.FailStops++
		st.Elapsed += lost
		s.diskRestart(r, st)
		return false // replay the whole pattern
	}
	st.Elapsed += c.C2
	return true
}

// OptimalSegmentLength minimizes the first-order overhead over T for a
// fixed K: dH/dT = 0 gives T = sqrt((V + C1 + C2/K) / (λs + λf·K/2)).
// K = 1 recovers the single-level Young/Daly period for the combined
// cost V + C1 + C2.
func OptimalSegmentLength(c Costs, k int, lambdaF, lambdaS float64) float64 {
	kk := float64(k)
	return math.Sqrt((c.V + c.C1 + c.C2/kk) / (lambdaS + lambdaF*kk/2))
}
