package campaign

import (
	"errors"
	"fmt"
	"io"
)

// ErrInjected is the error injected by a FaultPlan; tests match it to
// prove the retry path ran for the planned reason and not a real bug.
var ErrInjected = errors.New("campaign: injected fault")

// Fault describes the misbehaviour injected into a cell's Monte-Carlo
// attempts. Faults are deterministic — same plan, same cells, same
// attempts — which is what lets tests assert crash/resume/retry behavior
// instead of hoping a real flake shows up.
type Fault struct {
	// FailAttempts makes the first N attempts of the cell fail (with
	// ErrInjected, or a panic when Panic is set). A value not above the
	// executor's retry limit exercises recovery; a larger one forces a
	// permanent failure and the failure-budget path.
	FailAttempts int `json:"fail_attempts,omitempty"`
	// Panic turns injected failures into panics, exercising the
	// executor's recover-and-retry path.
	Panic bool `json:"panic,omitempty"`
	// DelayMS stalls every attempt before it starts: combined with a
	// per-cell timeout it forces the deadline path, and in the CI
	// kill-and-resume job it widens the window the SIGKILL must land in.
	DelayMS int `json:"delay_ms,omitempty"`
}

// FaultPlan maps cells to injected faults, keyed by cell ID, by the
// human-readable Label, or by "*" (every cell).
type FaultPlan map[string]Fault

// find resolves the fault for a cell, most specific key first.
func (fp FaultPlan) find(c *Cell) (Fault, bool) {
	if fp == nil {
		return Fault{}, false
	}
	if f, ok := fp[c.ID]; ok {
		return f, true
	}
	if f, ok := fp[c.Label()]; ok {
		return f, true
	}
	f, ok := fp["*"]
	return f, ok
}

// ReadFaultPlan decodes a plan from JSON ({"cell-or-label-or-*": fault}).
func ReadFaultPlan(r io.Reader) (FaultPlan, error) {
	var fp FaultPlan
	if err := decodeOne(r, &fp); err != nil {
		return nil, fmt.Errorf("campaign: bad fault plan: %w", err)
	}
	for k, f := range fp {
		if f.FailAttempts < 0 || f.DelayMS < 0 {
			return nil, fmt.Errorf("campaign: fault %q: negative fail_attempts/delay_ms", k)
		}
	}
	return fp, nil
}
