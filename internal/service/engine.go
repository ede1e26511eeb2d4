// Package service is the long-running evaluation layer on top of the
// reproduction: one process that amortizes repeated Amdahl/Young-Daly
// analyses across requests instead of paying a full cold solve per CLI
// invocation.
//
// The engine combines four mechanisms (DESIGN.md, "Service layer"):
//
//   - canonical request keys — core.Model.CacheKey plus exact parameter
//     encodings identify a request independent of representation;
//   - one-lock LRUs of compiled core.Frozen evaluators, memoized
//     optimizer results and Monte-Carlo campaign results (all are pure
//     functions of their key: campaigns are seeded, so even simulation
//     results are cacheable bit-exactly);
//   - single-flight deduplication — concurrent identical requests solve
//     once and share the result;
//   - a bounded job scheduler with context cancellation threaded into
//     sim.SimulateContext, so a request hang-up aborts its campaign
//     instead of burning the worker pool.
//
// Every result is bit-identical to the equivalent direct library call
// (and hence to the CLI tools): the service only adds reuse, never a
// different code path.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/sim"
)

// Options tunes the engine. The zero value serves with sensible bounds.
type Options struct {
	// FrozenCacheSize bounds the compiled-evaluator cache (default 4096
	// entries; a Frozen is ~200 bytes, so the default is well under a
	// megabyte).
	FrozenCacheSize int
	// ResultCacheSize bounds each of the optimizer- and campaign-result
	// caches (default 1024 entries).
	ResultCacheSize int
	// MaxConcurrent bounds the number of optimize/simulate jobs executing
	// at once (default GOMAXPROCS); further requests queue on the
	// scheduler until a slot frees or their context is cancelled.
	// Evaluate requests are never queued — a cached-kernel evaluation is
	// cheaper than the bookkeeping would be.
	MaxConcurrent int
	// SimWorkers is the per-campaign worker count handed to sim.RunConfig
	// (default 1: with MaxConcurrent campaigns in flight the process is
	// already saturated, and per-run streams make the setting invisible
	// in the results).
	SimWorkers int
	// MaxQueued bounds how many jobs may wait for a scheduler slot beyond
	// the MaxConcurrent executing ones. Past the bound the engine sheds
	// load immediately with ErrSaturated (HTTP 503 + Retry-After) instead
	// of accepting an unbounded backlog whose tail would time out anyway.
	// Zero selects the default 8×MaxConcurrent; negative means unbounded
	// (the historical behaviour).
	MaxQueued int
}

func (o Options) withDefaults() Options {
	if o.FrozenCacheSize == 0 {
		o.FrozenCacheSize = 4096
	}
	if o.ResultCacheSize == 0 {
		o.ResultCacheSize = 1024
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.SimWorkers == 0 {
		o.SimWorkers = 1
	}
	if o.MaxQueued == 0 {
		o.MaxQueued = 8 * o.MaxConcurrent
	}
	return o
}

// ErrSaturated reports that the scheduler's wait queue is full: the job
// was rejected without queueing. Clients should retry after a short
// backoff (the HTTP layer maps this to 503 with a Retry-After header).
var ErrSaturated = errors.New("service: scheduler saturated, retry later")

// Engine is the shared evaluation engine. It is safe for concurrent use;
// construct it once per process with NewEngine.
type Engine struct {
	opts Options

	frozen    *lruCache[*core.Frozen]
	optimizes *lruCache[optimize.PatternResult]
	sims      *lruCache[sim.RunResult]
	// mlOptimizes and mlSims are the two-level counterparts, living in
	// their own LRUs under the versioned ml1| key extension (see
	// multilevel.go): two-level results never alias single-level entries.
	mlOptimizes *lruCache[multilevel.PatternResult]
	mlSims      *lruCache[multilevel.CampaignResult]
	// hgOptimizes and hgSims hold the heterogeneous-topology results.
	// Their model keys already carry the hg1| version prefix
	// (core.HeteroModel.CacheKey), so a layout change in the hetero result
	// types bumps the namespace at the core layer.
	hgOptimizes *lruCache[hetero.PatternResult]
	hgSims      *lruCache[sim.HeteroRunResult]
	flight      *flightGroup

	// sem is the bounded job scheduler: one slot per executing job.
	sem chan struct{}
	// queue bounds the waiting set behind sem: a job must claim a queue
	// token before it may block on a scheduler slot, and a full queue is an
	// immediate ErrSaturated. nil means an unbounded queue (MaxQueued < 0).
	queue chan struct{}

	evals        atomic.Uint64
	optCalls     atomic.Uint64
	simCalls     atomic.Uint64
	sweepCalls   atomic.Uint64
	mlOptCalls   atomic.Uint64
	mlSimCalls   atomic.Uint64
	mlSweepCalls atomic.Uint64
	hgOptCalls   atomic.Uint64
	hgSimCalls   atomic.Uint64
	hgSweepCalls atomic.Uint64
	inFlight     atomic.Int64
	queued       atomic.Int64
	cancelled    atomic.Uint64
	saturated    atomic.Uint64
	cacheFills   atomic.Uint64
}

// NewEngine builds an engine with the given options.
func NewEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	var queue chan struct{}
	if opts.MaxQueued > 0 {
		queue = make(chan struct{}, opts.MaxQueued)
	}
	return &Engine{
		queue:       queue,
		opts:        opts,
		frozen:      newLRU[*core.Frozen](opts.FrozenCacheSize),
		optimizes:   newLRU[optimize.PatternResult](opts.ResultCacheSize),
		sims:        newLRU[sim.RunResult](opts.ResultCacheSize),
		mlOptimizes: newLRU[multilevel.PatternResult](opts.ResultCacheSize),
		mlSims:      newLRU[multilevel.CampaignResult](opts.ResultCacheSize),
		hgOptimizes: newLRU[hetero.PatternResult](opts.ResultCacheSize),
		hgSims:      newLRU[sim.HeteroRunResult](opts.ResultCacheSize),
		flight:      newFlightGroup(),
		sem:         make(chan struct{}, opts.MaxConcurrent),
	}
}

// Frozen returns the compiled evaluator for the model at P, compiling at
// most once per (model, P): the per-request cost of a warm evaluate is
// one cache probe instead of a Freeze.
func (e *Engine) Frozen(m core.Model, p float64) (*core.Frozen, error) {
	// Hold the request-supplied P to the simulate endpoints' standard:
	// Freeze would silently price any P < 1 as P = 1, and a NaN P would
	// cache an all-NaN kernel under a "#p=NaN" key (NaN never compares
	// equal, so a repeat request could never hit or evict it).
	if !(p >= 1) || math.IsInf(p, 0) {
		return nil, fmt.Errorf("service: processor count P = %g must be >= 1 and finite", p)
	}
	mk, err := m.CacheKey()
	if err != nil {
		return nil, err
	}
	key := mk + "#p=" + core.FormatFloatKey(p)
	if fz, ok := e.frozen.Get(key); ok {
		return fz, nil
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fz := m.Freeze(p)
	e.frozen.Add(key, &fz)
	return &fz, nil
}

// Evaluation is the result of one evaluate request: the exact formulas of
// Proposition 1 and Theorem 1 at a fixed (T, P).
type Evaluation struct {
	T                   float64 `json:"t"`
	P                   float64 `json:"p"`
	Overhead            float64 `json:"overhead"`
	PatternTime         float64 `json:"pattern_time"`
	FirstOrderTime      float64 `json:"first_order_pattern_time"`
	ErrorFree           float64 `json:"error_free_overhead"`
	OptimalPeriodFixedP float64 `json:"optimal_period_fixed_p"`
	Speedup             float64 `json:"speedup"`
}

// Evaluate prices PATTERN(T, P) on the cached compiled evaluator. It is
// bit-identical to the corresponding Model methods (Frozen is
// bit-exact by construction, pinned by the core property tests).
func (e *Engine) Evaluate(m core.Model, t, p float64) (Evaluation, error) {
	e.evals.Add(1)
	if !(t > 0) || math.IsInf(t, 0) || math.IsNaN(t) {
		return Evaluation{}, fmt.Errorf("service: period T = %g must be positive and finite", t)
	}
	fz, err := e.Frozen(m, p)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		T:                   t,
		P:                   fz.P,
		Overhead:            fz.Overhead(t),
		PatternTime:         fz.PatternTime(t),
		FirstOrderTime:      fz.FirstOrderPatternTime(t),
		ErrorFree:           fz.ErrorFreeOverhead(t),
		OptimalPeriodFixedP: fz.OptimalPeriod(),
		Speedup:             fz.Speedup(t),
	}, nil
}

// optionsKey canonically encodes the optimizer options (every field is
// observable in the result).
func optionsKey(o optimize.PatternOptions) string {
	return fmt.Sprintf("%s,%s,%s,%s,%t",
		core.FormatFloatKey(o.PMin), core.FormatFloatKey(o.PMax),
		core.FormatFloatKey(o.TMin), core.FormatFloatKey(o.TMax), o.IntegerP)
}

// optKey is the optimizer-cache key of the model keyed mk, for a protocol
// whose key version is version (mlKeyVersion for two-level results, empty
// otherwise) and whose options encode as optsKey. Per-request optima live
// under opt#, which cold sweep cells share in both directions; warm sweep
// cells agree only within the refinement tolerance, so they live under
// swopt# and a sweep never changes what an optimize request returns.
func optKey(mk, version string, warm bool, optsKey string) string {
	ns := "opt#"
	if warm {
		ns = "swopt#"
	}
	return mk + "#" + version + ns + optsKey
}

// solveOnce serves a cache miss for key as one job: concurrent identical
// requests share a single solve (single-flight), which holds one
// scheduler slot and adds its result to c. Callers probe c before
// building solve, so a hit allocates no closure. shared reports that the
// caller attached to a flight another request started — it did not pay
// for a solve either.
func solveOnce[R any](ctx context.Context, e *Engine, c *lruCache[R], key string, solve func(ctx context.Context) (R, error)) (res R, shared bool, err error) {
	v, shared, err := e.flight.do(ctx, key, func(ctx context.Context) (any, error) {
		if err := e.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.release()
		r, err := solve(ctx)
		if err != nil {
			return nil, err
		}
		c.Add(key, r)
		return r, nil
	})
	if err != nil {
		e.countCancelled(err)
		return res, false, err
	}
	return v.(R), shared, nil
}

// Optimize returns the numerical optimum (T*, P*) for the model,
// memoizing by canonical (model, options) key and deduplicating
// concurrent identical requests. cached reports whether the result was
// served from the cache (attaching to an in-flight solve counts: the
// request did not pay for a solve).
func (e *Engine) Optimize(ctx context.Context, m core.Model, opts optimize.PatternOptions) (res optimize.PatternResult, cached bool, err error) {
	e.optCalls.Add(1)
	mk, err := m.CacheKey()
	if err != nil {
		return res, false, err
	}
	key := optKey(mk, "", false, optionsKey(opts))
	if r, ok := e.optimizes.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.optimizes, key, func(context.Context) (optimize.PatternResult, error) {
		return optimize.OptimalPattern(m, opts)
	})
}

// SweepCell is one solved cell of a sweep: the optimizer result plus
// whether it was served from the per-cell cache.
type SweepCell struct {
	Result optimize.PatternResult
	Cached bool
}

// SweepStream solves an ordered axis of related models as one warm-start
// chain (optimize.SweepSolver) and hands each cell to emit as soon as it
// is solved, with the contract of sweepStream. Cold-mode cells are
// bit-identical to Optimize and share its cache entries in both
// directions; warm-mode cells live under their own namespace (optKey).
func (e *Engine) SweepStream(ctx context.Context, models []core.Model, opts optimize.PatternOptions, cold bool, emit func(i int, c SweepCell) error) error {
	e.sweepCalls.Add(1)
	keys, err := sweepKeys(models, "", cold, optionsKey(opts))
	if err != nil {
		return err
	}
	solver := optimize.NewSweepSolver(optimize.SweepOptions{PatternOptions: opts, Cold: cold})
	return sweepStream(ctx, e, e.optimizes, keys,
		func(i int, r optimize.PatternResult) { solver.Observe(models[i], r) },
		func(i int) (optimize.PatternResult, error) { return solver.Solve(models[i]) },
		func(i int, r optimize.PatternResult, cached bool) error {
			return emit(i, SweepCell{Result: r, Cached: cached})
		})
}

// sweepKeys builds the per-cell optimizer-cache keys of a sweep axis over
// models of any protocol (see optKey).
func sweepKeys[M interface{ CacheKey() (string, error) }](models []M, version string, cold bool, optsKey string) ([]string, error) {
	if len(models) == 0 {
		return nil, errors.New("service: sweep needs at least one cell")
	}
	keys := make([]string, len(models))
	for i, m := range models {
		mk, err := m.CacheKey()
		if err != nil {
			return nil, err
		}
		keys[i] = optKey(mk, version, !cold, optsKey)
	}
	return keys, nil
}

// sweepStream is the sweep loop of every protocol: one warm-start chain
// under a single scheduler slot, walking the cells in axis order. A cell
// cached under keys[i] primes the chain through observe instead of being
// re-solved; any other cell is solved and cached. Each cell reaches emit
// as soon as it is ready, so the first row of a long sweep reaches the
// client while the chain is still running, and a client hang-up (ctx
// cancelled, or emit returning an error) stops the chain at the next
// cell instead of solving the rest for nobody. There is no single-flight:
// an incremental stream has no whole-axis result for a second request to
// attach to. emit runs on the caller's goroutine while the chain holds
// its slot; a non-nil emit error aborts the sweep and is returned
// verbatim.
func sweepStream[R any](ctx context.Context, e *Engine, c *lruCache[R], keys []string,
	observe func(i int, r R), solve func(i int) (R, error), emit func(i int, r R, cached bool) error) error {
	if err := e.acquire(ctx); err != nil {
		e.countCancelled(err)
		return err
	}
	defer e.release()
	for i, key := range keys {
		if err := ctx.Err(); err != nil {
			e.countCancelled(err)
			return err
		}
		r, cached := c.Get(key)
		if cached {
			observe(i, r)
		} else {
			var err error
			if r, err = solve(i); err != nil {
				return fmt.Errorf("service: sweep cell %d: %w", i, err)
			}
			c.Add(key, r)
		}
		if err := emit(i, r, cached); err != nil {
			return err
		}
	}
	return nil
}

// countCancelled maintains the operator-facing cancellation counter: only
// genuine cancellations count, not arbitrary errors that happen to race a
// client hang-up.
func (e *Engine) countCancelled(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		e.cancelled.Add(1)
	}
}

// simKey canonically encodes a campaign request. Workers is deliberately
// excluded: per-run streams make campaign results worker-count
// independent (pinned by the sim runner tests), so requests differing
// only in parallelism share a cache entry.
func simKey(mk string, t, p float64, cfg sim.RunConfig) string {
	return fmt.Sprintf("%s#sim#%s,%s,%d,%d,%d,%t,%s",
		mk, core.FormatFloatKey(t), core.FormatFloatKey(p),
		cfg.Runs, cfg.Patterns, cfg.Seed, cfg.Machine, failures.CacheKey(cfg.Dist))
}

// Simulate runs (or replays from cache) a Monte-Carlo campaign. Seeded
// campaigns are pure functions of their configuration, so a cache hit is
// bit-identical to a fresh run; concurrent identical campaigns run once.
// The request context cancels an in-flight campaign between runs once
// every requester has hung up.
func (e *Engine) Simulate(ctx context.Context, m core.Model, t, p float64, cfg sim.RunConfig) (res sim.RunResult, cached bool, err error) {
	e.simCalls.Add(1)
	mk, err := m.CacheKey()
	if err != nil {
		return res, false, err
	}
	// Normalize before keying: a zero-valued request and one spelling out
	// the 500×500 defaults are the same campaign and must share a cache
	// entry (Workers is then overridden — like the excluded Workers key
	// component, it cannot affect results).
	cfg = cfg.WithDefaults()
	cfg.Workers = e.opts.SimWorkers
	key := simKey(mk, t, p, cfg)
	if r, ok := e.sims.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.sims, key, func(ctx context.Context) (sim.RunResult, error) {
		return sim.SimulateContext(ctx, m, t, p, cfg)
	})
}

// acquire claims a scheduler slot: immediately if one is free, otherwise
// by waiting in the bounded queue until a slot frees or ctx is done. A
// full queue fails fast with ErrSaturated — under overload the honest
// answer is "retry later", not an ever-longer line whose tail times out
// after holding client connections open.
func (e *Engine) acquire(ctx context.Context) error {
	// Fast path: a free slot never touches the queue bound, so an idle
	// engine admits MaxConcurrent jobs regardless of MaxQueued.
	select {
	case e.sem <- struct{}{}:
		e.inFlight.Add(1)
		return nil
	default:
	}
	if e.queue != nil {
		select {
		case e.queue <- struct{}{}:
		default:
			e.saturated.Add(1)
			return ErrSaturated
		}
		defer func() { <-e.queue }()
	}
	e.queued.Add(1)
	defer e.queued.Add(-1)
	select {
	case e.sem <- struct{}{}:
		e.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() {
	e.inFlight.Add(-1)
	<-e.sem
}

// Ready reports whether the scheduler would admit one more job without
// shedding: a free executing slot, or room in the bounded wait queue (an
// unbounded queue is always ready). It is the readiness half of the
// health split — /readyz turns this false into a 503 so a fleet router
// stops routing to a replica *before* it starts failing requests, while
// /healthz keeps answering as long as the process lives.
func (e *Engine) Ready() bool {
	if len(e.sem) < cap(e.sem) {
		return true
	}
	return e.queue == nil || len(e.queue) < cap(e.queue)
}

// Stats is the observable state of the engine.
type Stats struct {
	Evaluations             uint64     `json:"evaluations"`
	OptimizeCalls           uint64     `json:"optimize_calls"`
	SimulateCalls           uint64     `json:"simulate_calls"`
	SweepCalls              uint64     `json:"sweep_calls"`
	MultilevelOptimizeCalls uint64     `json:"multilevel_optimize_calls"`
	MultilevelSimulateCalls uint64     `json:"multilevel_simulate_calls"`
	MultilevelSweepCalls    uint64     `json:"multilevel_sweep_calls"`
	HeteroOptimizeCalls     uint64     `json:"hetero_optimize_calls"`
	HeteroSimulateCalls     uint64     `json:"hetero_simulate_calls"`
	HeteroSweepCalls        uint64     `json:"hetero_sweep_calls"`
	Deduplicated            uint64     `json:"deduplicated"`
	Cancelled               uint64     `json:"cancelled"`
	Saturated               uint64     `json:"saturated"`
	CacheFills              uint64     `json:"cache_fills"`
	InFlight                int64      `json:"in_flight"`
	Queued                  int64      `json:"queued"`
	MaxConcurrent           int        `json:"max_concurrent"`
	MaxQueued               int        `json:"max_queued"`
	FrozenCache             CacheStats `json:"frozen_cache"`
	OptimizeCache           CacheStats `json:"optimize_cache"`
	SimulateCache           CacheStats `json:"simulate_cache"`
	MultilevelOptimizeCache CacheStats `json:"multilevel_optimize_cache"`
	MultilevelSimulateCache CacheStats `json:"multilevel_simulate_cache"`
	HeteroOptimizeCache     CacheStats `json:"hetero_optimize_cache"`
	HeteroSimulateCache     CacheStats `json:"hetero_simulate_cache"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations:             e.evals.Load(),
		OptimizeCalls:           e.optCalls.Load(),
		SimulateCalls:           e.simCalls.Load(),
		SweepCalls:              e.sweepCalls.Load(),
		MultilevelOptimizeCalls: e.mlOptCalls.Load(),
		MultilevelSimulateCalls: e.mlSimCalls.Load(),
		MultilevelSweepCalls:    e.mlSweepCalls.Load(),
		HeteroOptimizeCalls:     e.hgOptCalls.Load(),
		HeteroSimulateCalls:     e.hgSimCalls.Load(),
		HeteroSweepCalls:        e.hgSweepCalls.Load(),
		Deduplicated:            e.flight.Deduped(),
		Cancelled:               e.cancelled.Load(),
		Saturated:               e.saturated.Load(),
		CacheFills:              e.cacheFills.Load(),
		InFlight:                e.inFlight.Load(),
		Queued:                  e.queued.Load(),
		MaxConcurrent:           e.opts.MaxConcurrent,
		MaxQueued:               e.opts.MaxQueued,
		FrozenCache:             e.frozen.Stats(),
		OptimizeCache:           e.optimizes.Stats(),
		SimulateCache:           e.sims.Stats(),
		MultilevelOptimizeCache: e.mlOptimizes.Stats(),
		MultilevelSimulateCache: e.mlSims.Stats(),
		HeteroOptimizeCache:     e.hgOptimizes.Stats(),
		HeteroSimulateCache:     e.hgSims.Stats(),
	}
}
