package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/stats"
)

// RunConfig parameterizes a Monte-Carlo campaign. The zero value plus a
// Seed reproduces the paper's methodology: 500 independent runs, each of
// at least 500 patterns (Section IV-A).
type RunConfig struct {
	// Runs is the number of independent simulation runs (default 500).
	Runs int
	// Patterns is the number of patterns per run (default 500).
	Patterns int
	// Seed fixes the campaign's master random stream; run i uses the
	// deterministic child stream Split(i), so results are independent of
	// scheduling and worker count.
	Seed uint64
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Machine switches to the machine-level event simulator (P must then
	// be integral); default is the fast pattern-level simulator.
	Machine bool
	// Dist, when non-nil, replaces the exponential per-processor
	// inter-arrival law with an arbitrary renewal process (requires
	// Machine: the pattern-level simulator's closed-form thinning is
	// exponential-only). Calibrate it to the model's MTBF so the platform
	// pressure stays comparable; see failures.Distribution.
	Dist failures.Distribution
}

// WithDefaults returns the effective configuration: the paper's 500-run,
// 500-pattern budget for zero Runs/Patterns and GOMAXPROCS workers.
// Exported so callers that key campaigns by configuration (the service
// result cache) normalize exactly the way Simulate will.
func (c RunConfig) WithDefaults() RunConfig {
	if c.Runs == 0 {
		c.Runs = 500
	}
	if c.Patterns == 0 {
		c.Patterns = 500
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// RunResult aggregates a Monte-Carlo campaign.
type RunResult struct {
	// Overhead summarizes per-run expected execution overheads
	// H = (elapsed/patterns)/T · H(P); its Mean is the quantity the
	// paper plots as "simulated execution overhead".
	Overhead stats.Summary
	// MeanPatternTime summarizes per-run mean pattern times E(PATTERN).
	MeanPatternTime stats.Summary
	// FailStops, SilentDetections and Recoveries are totals across runs.
	FailStops        int64
	SilentDetections int64
	Recoveries       int64
	// Config echoes the effective configuration.
	Config RunConfig
}

// maxSimProcs bounds the machine-level processor count: int(p) for p
// beyond 2⁶³ is undefined behaviour, and an event population anywhere
// near this bound could never be simulated anyway. The limit is far above
// every deployed machine of Table II and the robustness study's own
// 2¹⁶ cap.
const maxSimProcs = 1 << 30

// Simulate runs the Monte-Carlo campaign for PATTERN(T, P) under the
// model, fanning runs out over a worker pool with deterministic per-run
// streams, and returns aggregated statistics. It is SimulateContext with
// a background context.
func Simulate(m core.Model, t, p float64, cfg RunConfig) (RunResult, error) {
	return SimulateContext(context.Background(), m, t, p, cfg)
}

// SimulateContext is Simulate with cancellation: the campaign aborts
// between runs as soon as ctx is done (returning ctx.Err()), and a run
// failure cancels all outstanding work instead of paying for the
// remaining runs. Cancellation never changes the statistics of a
// campaign that completes: run i always draws from the deterministic
// child stream Split(i).
func SimulateContext(ctx context.Context, m core.Model, t, p float64, cfg RunConfig) (RunResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.Runs < 1 || cfg.Patterns < 1 {
		return RunResult{}, fmt.Errorf("sim: invalid config %+v", cfg)
	}

	var runOne func(r *rng.Rand) (PatternStats, error)
	if cfg.Dist != nil && !cfg.Machine {
		return RunResult{}, errors.New(
			"sim: non-exponential distributions need the machine-level simulator (set Machine)")
	}
	if cfg.Machine {
		// int(p) is only defined while p fits the integer range; validate
		// before converting instead of relying on downstream behaviour.
		if math.IsNaN(p) || p < 1 {
			return RunResult{}, fmt.Errorf("sim: machine-level simulation needs P >= 1, got %g", p)
		}
		if p > maxSimProcs {
			return RunResult{}, fmt.Errorf("sim: machine-level P = %g exceeds the %d-processor limit", p, maxSimProcs)
		}
		procs := int(p)
		if float64(procs) != p {
			return RunResult{}, fmt.Errorf("sim: machine-level simulation needs integral P, got %g", p)
		}
		var (
			mc  *Machine
			err error
		)
		if cfg.Dist != nil {
			mc, err = NewMachineDist(m, t, procs, cfg.Dist)
		} else {
			mc, err = NewMachine(m, t, procs)
		}
		if err != nil {
			return RunResult{}, err
		}
		runOne = func(r *rng.Rand) (PatternStats, error) {
			return mc.SimulateRun(cfg.Patterns, r)
		}
	} else {
		pr, err := NewProtocol(m, t, p)
		if err != nil {
			return RunResult{}, err
		}
		runOne = func(r *rng.Rand) (PatternStats, error) {
			return pr.SimulateRun(cfg.Patterns, r)
		}
	}

	// Run i always draws from the deterministic child stream Split(i), so
	// the worker count never changes the results. Split only reads the
	// master state, so concurrent splitting is race-free.
	master := rng.New(cfg.Seed)
	hOfP := m.Profile.Overhead(p)

	outs := make([]PatternStats, cfg.Runs)
	err := ForEachRun(ctx, cfg.Runs, cfg.Workers, func(_ context.Context, i int) error {
		st, err := runOne(master.Split(uint64(i)))
		outs[i] = st
		return err
	})
	if err != nil {
		return RunResult{}, err
	}

	var overhead, meanTime stats.Welford
	res := RunResult{Config: cfg}
	for _, st := range outs {
		overhead.Add(st.Overhead(t, hOfP))
		meanTime.Add(st.MeanPatternTime())
		res.FailStops += st.FailStops
		res.SilentDetections += st.SilentDetections
		res.Recoveries += st.Recoveries
	}
	res.Overhead = overhead.Summarize()
	res.MeanPatternTime = meanTime.Summarize()
	return res, nil
}

// ForEachRun calls fn(ctx, i) for every i in [0, n) on at most workers
// goroutines: the repository's one work-splitting pool, behind every
// Monte-Carlo campaign, figure and study cell and campaign chain.
// Callers fill per-index slots and derive index i's stream from i alone
// (rng.Rand.Split(i)), so results never depend on the worker count.
//
// Workers claim indices in order from one atomic cursor; one worker (or
// fewer) runs the calls inline and allocates nothing. The first error
// stops the claiming and cancels the ctx handed to the calls still
// running, and the lowest failed index's error returns as "sim: run N:
// …"; a call that returns context.Canceled or DeadlineExceeded after
// that ctx is done has not failed on its own. Otherwise the caller's
// cancellation is returned, unless every call had already completed.
func ForEachRun(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				if ctx.Err() != nil && isCancellation(err) {
					return ctx.Err()
				}
				return fmt.Errorf("sim: run %d: %w", i, err)
			}
		}
		return nil
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One shared state and one worker closure: the fan-out allocates
	// the same few objects whatever the worker count.
	var st struct {
		next, completed atomic.Int64
		wg              sync.WaitGroup
		mu              sync.Mutex
		failed          int // lowest failed index
		failure         error
	}
	work := func() {
		defer st.wg.Done()
		for poolCtx.Err() == nil {
			i := int(st.next.Add(1)) - 1
			if i >= n {
				return
			}
			err := fn(poolCtx, i)
			switch {
			case err == nil:
				st.completed.Add(1)
			case poolCtx.Err() != nil && isCancellation(err):
				// Aborted by another call's failure or by the caller.
			default:
				st.mu.Lock()
				if st.failure == nil || i < st.failed {
					st.failed, st.failure = i, err
				}
				st.mu.Unlock()
				cancel()
			}
		}
	}
	workers = min(workers, n)
	st.wg.Add(workers)
	for range workers {
		go work()
	}
	st.wg.Wait()
	if st.failure != nil {
		return fmt.Errorf("sim: run %d: %w", st.failed, st.failure)
	}
	if st.completed.Load() == int64(n) {
		return nil
	}
	return ctx.Err()
}

// isCancellation reports whether err is a context's own error, the
// answer of a call that was aborted rather than one that failed.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
