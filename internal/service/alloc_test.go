package service

import (
	"context"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/speedup"
)

// TestKeyAllocationContracts pins what a cache key costs: one
// allocation, the string the cache stores, and none on a warm hit, which
// looks the key bytes up without building the string. Every key is built
// in one stack buffer, which no functional test notices moving to the
// heap — calling the model's key appender through a type parameter or a
// func value, for one, moves it.
func TestKeyAllocationContracts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	m := keyBytesModel(t, speedup.Amdahl{Alpha: 0.1})
	hm, _, err := testTopologySpec(0.02).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	ctx := context.Background()
	if _, _, err := e.Optimize(ctx, m, optimize.PatternOptions{}); err != nil {
		t.Fatal(err)
	}
	models := make([]core.Model, 16)
	for i := range models {
		models[i] = m
		models[i].LambdaInd *= 1 + float64(i)/16
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Model.CacheKey", 1, func() { _, _ = m.CacheKey() }},
		{"two-group HeteroModel.CacheKey", 1, func() { _, _ = hm.CacheKey() }},
		{"warm engine optimize hit", 0, func() {
			if _, cached, err := e.Optimize(ctx, m, optimize.PatternOptions{}); err != nil || !cached {
				t.Fatalf("warm optimize: cached=%t err=%v", cached, err)
			}
		}},
		{"keys of a 16-cell sweep", 17, func() {
			var ob [keyBuf]byte
			if _, err := sweepKeys(models, "", false, appendOptionsKey(ob[:0], optimize.PatternOptions{})); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.max {
			t.Errorf("%s: %v allocs/op, want at most %v", c.name, got, c.max)
		}
	}
}
