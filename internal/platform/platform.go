// Package platform holds the platform parameters of Table II: the four
// real machines (Hera, Atlas, Coastal, Coastal SSD) whose error rates and
// checkpointing costs were measured for the Scalable Checkpoint/Restart
// (SCR) study, and the heterogeneous topologies built from such rows.
//
// λ_ind aggregates both fail-stop and silent errors per processor; the
// fractions f and s = 1−f split it into the two sources. The checkpoint
// and verification costs are the measured values at the deployed processor
// count and are projected onto other counts by the scenario calibration in
// internal/costmodel.
package platform

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"amdahlyd/internal/costmodel"
)

// Platform is one row of Table II.
type Platform struct {
	// Name identifies the platform ("Hera", …).
	Name string `json:"name"`
	// LambdaInd is the individual per-processor error rate (1/s),
	// aggregating fail-stop and silent sources.
	LambdaInd float64 `json:"lambda_ind"`
	// FailStopFraction is f, the fraction of errors that are fail-stop.
	FailStopFraction float64 `json:"f"`
	// SilentFraction is s = 1−f, the fraction that are silent.
	SilentFraction float64 `json:"s"`
	// Processors is the deployed processor count at which the costs below
	// were measured.
	Processors float64 `json:"p"`
	// CheckpointCost is the measured C_P (seconds) at Processors.
	CheckpointCost float64 `json:"cp"`
	// VerificationCost is the measured V_P (seconds) at Processors.
	VerificationCost float64 `json:"vp"`
}

// Validate checks internal consistency (rates positive, fractions in
// [0, 1] and summing to 1 within measurement rounding). Every range test
// is written in the form !(x in range) so that a NaN field — for which
// any comparison is false — is rejected rather than silently admitted,
// and infinities are rejected explicitly: a platform is a set of
// measurements, and a non-finite measurement is a corrupt one.
func (pl Platform) Validate() error {
	if pl.Name == "" {
		return errors.New("platform: empty name")
	}
	if !(pl.LambdaInd > 0) || math.IsInf(pl.LambdaInd, 0) {
		return fmt.Errorf("platform %s: λ_ind = %g must be positive and finite", pl.Name, pl.LambdaInd)
	}
	if !(pl.FailStopFraction >= 0 && pl.FailStopFraction <= 1) {
		return fmt.Errorf("platform %s: f = %g outside [0,1]", pl.Name, pl.FailStopFraction)
	}
	if !(pl.SilentFraction >= 0 && pl.SilentFraction <= 1) {
		return fmt.Errorf("platform %s: s = %g outside [0,1]", pl.Name, pl.SilentFraction)
	}
	if math.Abs(pl.FailStopFraction+pl.SilentFraction-1) > 1e-3 {
		return fmt.Errorf("platform %s: f + s = %g, want 1", pl.Name,
			pl.FailStopFraction+pl.SilentFraction)
	}
	if !(pl.Processors >= 1) || math.IsInf(pl.Processors, 0) {
		return fmt.Errorf("platform %s: P = %g must be >= 1 and finite", pl.Name, pl.Processors)
	}
	if !(pl.CheckpointCost > 0) || math.IsInf(pl.CheckpointCost, 0) {
		return fmt.Errorf("platform %s: C_P = %g must be positive and finite", pl.Name, pl.CheckpointCost)
	}
	if !(pl.VerificationCost >= 0) || math.IsInf(pl.VerificationCost, 0) {
		return fmt.Errorf("platform %s: V_P = %g must be non-negative and finite", pl.Name, pl.VerificationCost)
	}
	return nil
}

// Resilience calibrates the scenario's cost model from this platform's
// measurements (Section IV-A) with the given downtime.
func (pl Platform) Resilience(s costmodel.Scenario, downtime float64) (costmodel.Resilience, error) {
	return s.Calibrate(pl.Processors, pl.CheckpointCost, pl.VerificationCost, downtime)
}

// WithLambda returns a copy with a different individual error rate,
// keeping everything else; used by the λ-sweep experiments (Figs. 5–6).
func (pl Platform) WithLambda(lambda float64) Platform {
	pl.LambdaInd = lambda
	return pl
}

// The four platforms of Table II.
var table2 = []Platform{
	{Name: "Hera", LambdaInd: 1.69e-8, FailStopFraction: 0.2188, SilentFraction: 0.7812,
		Processors: 512, CheckpointCost: 300, VerificationCost: 15.4},
	{Name: "Atlas", LambdaInd: 1.62e-8, FailStopFraction: 0.0625, SilentFraction: 0.9375,
		Processors: 1024, CheckpointCost: 439, VerificationCost: 9.1},
	{Name: "Coastal", LambdaInd: 2.34e-9, FailStopFraction: 0.1667, SilentFraction: 0.8333,
		Processors: 2048, CheckpointCost: 1051, VerificationCost: 4.5},
	{Name: "CoastalSSD", LambdaInd: 2.34e-9, FailStopFraction: 0.1667, SilentFraction: 0.8333,
		Processors: 2048, CheckpointCost: 2500, VerificationCost: 180},
}

// Hera returns the Hera platform (512 dual-quad-core nodes).
func Hera() Platform { return table2[0] }

// Atlas returns the Atlas platform.
func Atlas() Platform { return table2[1] }

// Coastal returns the Coastal platform with disk-based SCR storage.
func Coastal() Platform { return table2[2] }

// CoastalSSD returns the Coastal platform with SSD-based SCR storage.
func CoastalSSD() Platform { return table2[3] }

// All returns the four Table II platforms in paper order.
func All() []Platform {
	out := make([]Platform, len(table2))
	copy(out, table2)
	return out
}

// Lookup finds a built-in platform by case-insensitive name. The Coastal
// SSD platform also answers to "coastal-ssd" and "coastal ssd".
func Lookup(name string) (Platform, error) {
	key := strings.ToLower(strings.NewReplacer(" ", "", "-", "", "_", "").Replace(name))
	for _, pl := range table2 {
		if strings.ToLower(pl.Name) == key {
			return pl, nil
		}
	}
	names := make([]string, len(table2))
	for i, pl := range table2 {
		names[i] = pl.Name
	}
	sort.Strings(names)
	return Platform{}, fmt.Errorf("platform: unknown platform %q (built-ins: %s)",
		name, strings.Join(names, ", "))
}
