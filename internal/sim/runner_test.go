package sim

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/speedup"
)

// runnerModel is a Hera-like model cheap enough for runner-level tests.
func runnerModel(t *testing.T) core.Model {
	t.Helper()
	prof, err := speedup.NewAmdahl(0.1)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Model{
		LambdaInd:    1e-9,
		FailStopFrac: 0.8,
		SilentFrac:   0.2,
		Res: costmodel.New(
			costmodel.Checkpoint{A: 120},
			costmodel.Verification{V: 20},
			3600),
		Profile: prof,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSimulateWorkerCountIndependent pins the determinism contract of the
// runner: because run i always draws from the deterministic child stream
// Split(i), the campaign statistics must be bit-identical whatever the
// worker count (including the sequential fast path). Run under -race this
// also exercises the "Split only reads the master state" claim: up to 16
// workers concurrently split one master rng.Rand, and the machine-level
// configurations run pooled workspaces on concurrent goroutines.
func TestSimulateWorkerCountIndependent(t *testing.T) {
	m := runnerModel(t)
	hot := m
	hot.LambdaInd = 1e-7 // enough fail-stops to restart the machine's clocks
	weibull, err := failures.NewWeibullMTBF(0.7, 1/hot.LambdaInd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    core.Model
		cfg  RunConfig
	}{
		{"protocol", m, RunConfig{}},
		{"machine", hot, RunConfig{Machine: true}},
		{"machine-weibull", hot, RunConfig{Machine: true, Dist: weibull}},
	} {
		cfg := tc.cfg
		cfg.Runs, cfg.Patterns, cfg.Seed = 64, 20, 42
		var want RunResult
		for i, workers := range []int{1, 2, 3, 7, 16} {
			cfg.Workers = workers
			got, err := Simulate(tc.m, 6240, 219, cfg)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			// Normalize the echoed config: only the statistics must agree.
			got.Config = RunConfig{}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: workers=%d changed results:\n got %+v\nwant %+v", tc.name, workers, got, want)
			}
		}
		if tc.cfg.Machine && want.FailStops == 0 {
			t.Errorf("%s: no fail-stops, the clock restart is unexercised", tc.name)
		}
	}
}

// TestSplitConcurrentMatchesSequential pins rng.Rand.Split's concurrency
// contract directly: concurrent Split(i) calls from many goroutines must
// yield exactly the child streams a sequential loop yields, because Split
// never mutates the master state. The test is meaningful under -race (it
// would flag any write to the master) and self-checks the stream values.
func TestSplitConcurrentMatchesSequential(t *testing.T) {
	const streams, draws = 128, 16

	master := rng.New(99)
	want := make([][draws]uint64, streams)
	for i := range want {
		child := master.Split(uint64(i))
		for d := 0; d < draws; d++ {
			want[i][d] = child.Uint64()
		}
	}

	got := make([][draws]uint64, streams)
	var wg sync.WaitGroup
	const workers = 8
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= streams {
					return
				}
				child := master.Split(uint64(i))
				for d := 0; d < draws; d++ {
					got[i][d] = child.Uint64()
				}
			}
		}()
	}
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream %d: concurrent Split diverged from sequential", i)
		}
	}
}

// TestForEachRunFailFast pins the fail-fast contract: an error on the
// first run must cancel outstanding chunks instead of paying for the
// whole campaign.
func TestForEachRunFailFast(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var executed atomic.Int64
		const runs = 512
		err := ForEachRun(context.Background(), runs, workers, func(i int) error {
			executed.Add(1)
			if i == 0 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, sentinel)
		}
		if !strings.Contains(err.Error(), "run 0") {
			t.Errorf("workers=%d: err %q does not name the failed run", workers, err)
		}
		// With fail-fast, at most the in-flight chunks complete; without
		// it all 512 runs would have executed.
		if n := executed.Load(); n >= runs {
			t.Errorf("workers=%d: executed %d/%d runs despite run-0 failure", workers, n, runs)
		}
	}
}

// TestForEachRunReportsLowestIndex pins deterministic error selection
// when several runs fail concurrently.
func TestForEachRunReportsLowestIndex(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEachRun(context.Background(), 64, 8, func(i int) error {
		if i%2 == 1 { // every odd run fails; 1 is the lowest
			return sentinel
		}
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if !strings.Contains(err.Error(), "run 1:") {
		t.Errorf("err %q, want the lowest failed index (run 1)", err)
	}
}

// TestSimulateContextCancelled checks that a campaign aborts promptly
// with ctx.Err() once its context is cancelled.
func TestSimulateContextCancelled(t *testing.T) {
	m := runnerModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := SimulateContext(ctx, m, 6240, 219, RunConfig{
			Runs: 10000, Patterns: 500, Seed: 1, Workers: workers,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestSimulateMachineProcsValidation pins the machine-path processor
// validation: P below one, non-integral, absurdly large or NaN must be
// rejected with a clear error before any machine is constructed.
func TestSimulateMachineProcsValidation(t *testing.T) {
	m := runnerModel(t)
	cfg := RunConfig{Runs: 2, Patterns: 2, Seed: 1, Machine: true}
	for _, tc := range []struct {
		p    float64
		want string
	}{
		{0, "P >= 1"},
		{0.5, "P >= 1"},
		{-3, "P >= 1"},
		{math.NaN(), "P >= 1"},
		{219.5, "integral"},
		{1e18, "limit"},
		{math.Inf(1), "limit"},
	} {
		_, err := Simulate(m, 6240, tc.p, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("P=%g: err = %v, want mention of %q", tc.p, err, tc.want)
		}
	}
	// The boundary that must still work: a small integral P.
	if _, err := Simulate(m, 6240, 4, cfg); err != nil {
		t.Errorf("P=4: unexpected error %v", err)
	}
}
