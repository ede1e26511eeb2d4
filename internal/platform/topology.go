package platform

import (
	"errors"
	"fmt"
	"math"
)

// Group is one homogeneous tile of a heterogeneous platform: Size
// processors sharing an individual error rate, a speed factor relative to
// the topology's baseline processor, and checkpoint/verification costs
// measured at the group's deployed size. A Group is exactly a Platform
// row plus the speed factor; Platform() recovers that view for scenario
// calibration.
type Group struct {
	// Name identifies the group within its topology ("cpu", "accel", …).
	Name string `json:"name"`
	// LambdaInd is the group's individual per-processor error rate (1/s).
	LambdaInd float64 `json:"lambda_ind"`
	// FailStopFraction is f, the fraction of errors that are fail-stop.
	FailStopFraction float64 `json:"f"`
	// SilentFraction is s = 1−f, the fraction that are silent.
	SilentFraction float64 `json:"s"`
	// Size is the number of processors in the group; a job may allocate
	// any P_g ≤ Size from it.
	Size float64 `json:"size"`
	// Speed is the per-processor speed factor σ relative to the
	// topology's baseline (1 = baseline; an accelerator tile has σ > 1).
	Speed float64 `json:"speed"`
	// CheckpointCost is the measured C_P (seconds) at Size processors.
	CheckpointCost float64 `json:"cp"`
	// VerificationCost is the measured V_P (seconds) at Size processors.
	VerificationCost float64 `json:"vp"`
}

// Platform returns the group viewed as a single homogeneous platform:
// the row the scenario calibration and the failure model consume. The
// speed factor is not part of that view — it lives in the speedup
// profile, not the cost model.
func (g Group) Platform() Platform {
	return Platform{
		Name:             g.Name,
		LambdaInd:        g.LambdaInd,
		FailStopFraction: g.FailStopFraction,
		SilentFraction:   g.SilentFraction,
		Processors:       g.Size,
		CheckpointCost:   g.CheckpointCost,
		VerificationCost: g.VerificationCost,
	}
}

// Validate checks the group the same way Platform.Validate checks a row
// (NaN and infinities rejected field by field), plus the speed factor.
func (g Group) Validate() error {
	if err := g.Platform().Validate(); err != nil {
		return err
	}
	if !(g.Speed > 0) || math.IsInf(g.Speed, 0) {
		return fmt.Errorf("platform group %s: speed σ = %g must be positive and finite", g.Name, g.Speed)
	}
	return nil
}

// Topology is a platform made of heterogeneous groups plus one
// inter-group communication coefficient: when more than one group works
// on the same job, every participating processor pays Comm seconds of
// overhead per unit of sequential work per additional active group (the
// linear-cost exchange term of the Amdahl-meets-DLT analysis). A
// one-group topology with Comm = 0 is exactly a classical Platform.
type Topology struct {
	// Name labels the topology in reports and manifests.
	Name string `json:"name"`
	// Comm is the inter-group communication coefficient κ ≥ 0
	// (dimensionless: overhead per unit sequential work, per allocated
	// processor, per additional active group).
	Comm float64 `json:"comm"`
	// Groups lists the tiles. Order is meaningful: group indices identify
	// groups in optimizer results and simulation plans.
	Groups []Group `json:"groups"`
}

// Validate rejects topologies that could not be compiled into a
// heterogeneous model: no groups, duplicate group names, a non-finite or
// negative communication coefficient, or any invalid group.
func (tp Topology) Validate() error {
	if tp.Name == "" {
		return errors.New("platform: topology with empty name")
	}
	if len(tp.Groups) == 0 {
		return fmt.Errorf("platform topology %s: no groups", tp.Name)
	}
	if !(tp.Comm >= 0) || math.IsInf(tp.Comm, 0) {
		return fmt.Errorf("platform topology %s: comm κ = %g must be non-negative and finite", tp.Name, tp.Comm)
	}
	seen := make(map[string]bool, len(tp.Groups))
	for _, g := range tp.Groups {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("platform topology %s: %w", tp.Name, err)
		}
		if seen[g.Name] {
			return fmt.Errorf("platform topology %s: duplicate group %q", tp.Name, g.Name)
		}
		seen[g.Name] = true
	}
	return nil
}

// SingleGroup wraps a classical platform as a one-group topology with
// speed 1 and zero communication — the degenerate case every hetero
// layer must reproduce bit-identically.
func SingleGroup(pl Platform) Topology {
	return Topology{
		Name: pl.Name,
		Comm: 0,
		Groups: []Group{{
			Name:             pl.Name,
			LambdaInd:        pl.LambdaInd,
			FailStopFraction: pl.FailStopFraction,
			SilentFraction:   pl.SilentFraction,
			Size:             pl.Processors,
			Speed:            1,
			CheckpointCost:   pl.CheckpointCost,
			VerificationCost: pl.VerificationCost,
		}},
	}
}
