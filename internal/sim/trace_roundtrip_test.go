package sim

import (
	"bytes"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
)

// A saved-then-loaded trace must replay bit-identically to the in-memory
// one. This is the regression test for the lossy CSV round trip: before
// the horizon was persisted, ReadCSV restored it as the last event time,
// so the reloaded replay exhausted earlier and counted fewer patterns.
func TestReplayCSVRoundTripBitEqual(t *testing.T) {
	pl := platform.Hera().WithLambda(1e-6)
	m := testModel(t, pl, costmodel.Scenario1, 0.1, 360)

	// A sparse trace with a long event-free tail before the horizon: the
	// patterns completed in that tail are exactly what the lossy horizon
	// used to drop.
	tr, err := failures.GenerateTraceDist(failures.Exponential{Rate: 1e-6}, pl.FailStopFraction, 8, 4e6, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}

	const tt, p = 2000.0, 8
	direct, err := SimulateReplay(m, tt, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Patterns == 0 {
		t.Fatal("direct replay completed no patterns")
	}

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := failures.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := SimulateReplay(m, tt, p, back)
	if err != nil {
		t.Fatal(err)
	}
	if direct != reloaded {
		t.Errorf("round-trip replay diverged:\n direct   %+v\n reloaded %+v", direct, reloaded)
	}

	// The test must be discriminating: truncating the horizon to the last
	// event (the historical lossy restore) must actually change the
	// replay, otherwise this pins nothing.
	lossy := &failures.Trace{Events: back.Events, Horizon: back.Events[len(back.Events)-1].Time}
	short, err := SimulateReplay(m, tt, p, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if short.Patterns >= direct.Patterns {
		t.Errorf("test not discriminating: lossy horizon still completes %d >= %d patterns",
			short.Patterns, direct.Patterns)
	}
}
