package failures

import (
	"strings"
	"testing"

	"amdahlyd/internal/rng"
)

// stallingDist is a degenerate law whose mean implies an event estimate
// far beyond the integer range while its samples never advance the
// clock: it exercises the preallocation clamp and the stall guard.
type stallingDist struct{}

func (stallingDist) Sample(*rng.Rand) float64 { return 0 }
func (stallingDist) Mean() float64            { return 1e-30 }
func (stallingDist) CDF(x float64) float64 {
	if x >= 0 {
		return 1
	}
	return 0
}
func (stallingDist) Name() string { return "stalling-test" }

// TestGenerateTraceDistOverflowingEstimate pins the preallocation
// guard: an event estimate beyond the integer range must clamp (not
// convert to a negative cap and panic makeslice) and generation must
// still fail through its own named guards.
func TestGenerateTraceDistOverflowingEstimate(t *testing.T) {
	_, err := GenerateTraceDist(stallingDist{}, 0.5, 1<<20, 1e9, rng.New(1))
	if err == nil {
		t.Fatal("degenerate law generated a trace")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want the stall guard error, got: %v", err)
	}
}

// TestGenerateTracePreallocMatchesDensity checks the common case: the
// buffer is sized from procs × horizon/MTBF so a realistic trace fits
// its first allocation.
func TestGenerateTracePreallocMatchesDensity(t *testing.T) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-6}, 0.3, 16, 1e8, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Events)
	if n == 0 {
		t.Fatal("empty trace")
	}
	if c := cap(tr.Events); c < n {
		t.Fatalf("cap %d < len %d", c, n)
	} else if c > 4*n+64 {
		t.Fatalf("cap %d is far beyond the %d events generated — estimate off", c, n)
	}
}
