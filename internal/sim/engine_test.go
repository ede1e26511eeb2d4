package sim

import (
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(1, func() { order = append(order, "first") })
	e.Schedule(1, func() { order = append(order, "second") })
	e.Run()
	if order[0] != "first" || order[1] != "second" {
		t.Errorf("tie broken wrongly: %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancel after firing is a no-op.
	ev2 := e.Schedule(1, func() {})
	e.Run()
	ev2.Cancel()
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	var e Engine
	var times []float64
	var chain func()
	n := 0
	chain = func() {
		times = append(times, e.Now())
		n++
		if n < 4 {
			e.Schedule(10, chain)
		}
	}
	e.Schedule(10, chain)
	e.Run()
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("chain times %v, want %v", times, want)
		}
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {
		e.Schedule(-3, func() {
			if e.Now() != 5 {
				t.Errorf("negative-delay event at %g, want now (5)", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil action should panic")
		}
	}()
	var e Engine
	e.Schedule(1, nil)
}

func TestEngineStepExhausted(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty engine should report false")
	}
}
