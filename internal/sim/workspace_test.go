package sim

import (
	"slices"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
)

func workspaceTestModel(t *testing.T) core.Model {
	t.Helper()
	res, err := costmodel.Scenario1.Calibrate(219, 300, 15.4, 3600)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Model{
		LambdaInd:    1.69e-7, // 10× Hera so a short run still sees errors
		FailStopFrac: 0.2188,
		SilentFrac:   0.7812,
		Res:          res,
		Profile:      speedup.Amdahl{Alpha: 0.1},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEngineOrdering pins the event order of the machine-level run: the
// clock heap's top is always the earliest pending arrival, and re-arming
// the fired clock in place keeps that true.
func TestEngineOrdering(t *testing.T) {
	w := &workspace{arrivals: []clock{
		{t: 3, seq: 1, proc: 0}, {t: 1, seq: 2, proc: 1}, {t: 5, seq: 3, proc: 2},
		{t: 2, seq: 4, proc: 3}, {t: 4, seq: 5, proc: 4},
	}}
	w.heapify()
	var fired []float64
	for range w.arrivals {
		w.now = w.arrivals[0].t
		fired = append(fired, w.now)
		// Re-arm the fired clock past every other one, in place.
		w.arrivals[0] = w.schedule(-1, 10)
		w.siftDown(0)
	}
	if want := []float64{1, 2, 3, 4, 5}; !slices.Equal(fired, want) {
		t.Errorf("clocks fired at times %v, want %v", fired, want)
	}
}

// TestEngineTieBreakBySchedulingOrder pins the tie rule of the
// machine-level run: clocks due at the same instant fire in the order
// they were scheduled, between arrivals and against the segment end.
func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	w := new(workspace)
	for _, proc := range []int{3, 1, 4, 0, 2} {
		w.arrivals = append(w.arrivals, w.schedule(proc, 1))
	}
	// Scramble the slice so only seq can restore the scheduling order.
	slices.Reverse(w.arrivals)
	w.heapify()
	var fired []int
	for range w.arrivals {
		fired = append(fired, w.arrivals[0].proc)
		w.arrivals[0] = w.schedule(-1, 10)
		w.siftDown(0)
	}
	if want := []int{3, 1, 4, 0, 2}; !slices.Equal(fired, want) {
		t.Errorf("tied clocks fired in processor order %v, want %v", fired, want)
	}
	w.now = 0
	arrival := w.schedule(0, 2)
	segment := w.schedule(-1, 2)
	if !arrival.before(segment) || segment.before(arrival) {
		t.Errorf("arrival %+v and segment end %+v tie broken against scheduling order", arrival, segment)
	}
}

// TestWorkspaceReuseBitIdentical pins that a reused workspace replays
// bit-identically to fresh workspaces and to the pooled SimulateRun
// path, across machines of different sizes (the clock heap must resize
// cleanly).
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	m := workspaceTestModel(t)
	mcBig, err := NewMachine(m, 6240, 219)
	if err != nil {
		t.Fatal(err)
	}
	mcSmall, err := NewMachine(m, 6240, 7)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(workspace)
	for i, mc := range []*Machine{mcBig, mcSmall, mcBig} {
		seed := uint64(100 + i)
		reused := ws.run(mc, 5, rng.New(seed))
		fresh := new(workspace).run(mc, 5, rng.New(seed))
		pooled, err := mc.SimulateRun(5, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if reused != fresh || reused != pooled {
			t.Fatalf("run %d: reused %+v, fresh %+v, pooled %+v", i, reused, fresh, pooled)
		}
		if reused.Elapsed <= 0 || reused.Patterns != 5 {
			t.Fatalf("run %d: implausible stats %+v", i, reused)
		}
	}
}

// TestMachineRunAllocationFree pins that a machine-level run on a reused
// workspace allocates nothing, under the exponential law and a renewal
// law alike.
func TestMachineRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	m := workspaceTestModel(t)
	d, err := failures.NewWeibullMTBF(0.7, 1/m.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewMachine(m, 6240, 219)
	if err != nil {
		t.Fatal(err)
	}
	weibull, err := NewMachineDist(m, 6240, 219, d)
	if err != nil {
		t.Fatal(err)
	}
	for name, mc := range map[string]*Machine{"exponential": exp, "weibull": weibull} {
		ws := new(workspace)
		r := rng.New(3)
		var failStops int64
		allocs := testing.AllocsPerRun(20, func() { failStops += ws.run(mc, 20, r).FailStops })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
		if failStops == 0 {
			t.Errorf("%s: no fail-stop in the measured runs", name)
		}
	}
}
