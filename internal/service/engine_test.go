package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/speedup"
)

func heraModel(t testing.TB) core.Model {
	t.Helper()
	m, err := experiments.BuildModel(platform.Hera(), costmodel.Scenario1, 0.1, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The engine must be a pure accelerator: results bit-identical to the
// direct library calls the CLIs make.
func TestEngineMatchesDirectCalls(t *testing.T) {
	e := NewEngine(Options{})
	m := heraModel(t)

	ev, err := e.Evaluate(m, 6240, 219)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Overhead != m.Overhead(6240, 219) {
		t.Errorf("evaluate overhead %v != model %v", ev.Overhead, m.Overhead(6240, 219))
	}
	if ev.PatternTime != m.ExactPatternTime(6240, 219) {
		t.Errorf("evaluate pattern time diverges from Proposition 1")
	}
	if ev.OptimalPeriodFixedP != m.OptimalPeriodFixedP(219) {
		t.Errorf("evaluate T*_P diverges from Theorem 1")
	}

	want, err := optimize.OptimalPattern(m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := e.Optimize(context.Background(), m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first optimize reported cached")
	}
	if got != want {
		t.Errorf("optimize result %+v != direct %+v", got, want)
	}

	cfg := sim.RunConfig{Runs: 20, Patterns: 20, Seed: 7, Workers: 1}
	wantSim, err := sim.Simulate(m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSim, cached, err := e.Simulate(context.Background(), m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first simulate reported cached")
	}
	if gotSim.Overhead != wantSim.Overhead || gotSim.MeanPatternTime != wantSim.MeanPatternTime ||
		gotSim.FailStops != wantSim.FailStops || gotSim.Recoveries != wantSim.Recoveries {
		t.Errorf("simulate result diverges from direct call:\n got %+v\nwant %+v", gotSim, wantSim)
	}
}

// A repeated identical optimize must hit the cache, and the cached value
// must be the original result.
func TestEngineOptimizeCacheHit(t *testing.T) {
	e := NewEngine(Options{})
	m := heraModel(t)
	first, cached, err := e.Optimize(context.Background(), m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold request reported cached")
	}
	second, cached, err := e.Optimize(context.Background(), m, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("warm request missed the cache")
	}
	if second != first {
		t.Errorf("cache returned a different result:\n got %+v\nwant %+v", second, first)
	}
	st := e.Stats()
	if st.OptimizeCache.Hits == 0 {
		t.Errorf("stats report no optimize-cache hits: %+v", st.OptimizeCache)
	}
	// A different model must not share the entry.
	m2 := m
	m2.LambdaInd *= 2
	_, cached, err = e.Optimize(context.Background(), m2, optimize.PatternOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("different model hit the cache")
	}
	// Different options must not share the entry either.
	_, cached, err = e.Optimize(context.Background(), m, optimize.PatternOptions{IntegerP: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("different options hit the cache")
	}
}

// Identical sim campaigns replay from the cache bit-exactly.
func TestEngineSimulateCacheHit(t *testing.T) {
	e := NewEngine(Options{})
	m := heraModel(t)
	cfg := sim.RunConfig{Runs: 10, Patterns: 10, Seed: 3}
	first, _, err := e.Simulate(context.Background(), m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, cached, err := e.Simulate(context.Background(), m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("identical campaign missed the cache")
	}
	if second.Overhead != first.Overhead || second.FailStops != first.FailStops {
		t.Error("cached campaign differs from the original")
	}
	// A different seed is a different campaign.
	cfg.Seed = 4
	_, cached, err = e.Simulate(context.Background(), m, 6240, 219, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("different seed hit the cache")
	}
}

// slowProfile wraps Amdahl with a deliberate per-call delay (and an
// optional per-call hook) so a solve is slow enough to observe
// concurrency effects deterministically.
type slowProfile struct {
	speedup.Amdahl
	delay  time.Duration
	calls  *atomic.Int64
	onCall func()
}

func (s slowProfile) Overhead(p float64) float64 {
	s.calls.Add(1)
	if s.onCall != nil {
		s.onCall()
	}
	time.Sleep(s.delay)
	return s.Amdahl.Overhead(p)
}

func (s slowProfile) CacheKey() string { return fmt.Sprintf("slow-amdahl:%g", s.Alpha) }

// Concurrent identical optimize requests must solve exactly once.
func TestEngineSingleFlightDedup(t *testing.T) {
	e := NewEngine(Options{MaxConcurrent: 8})
	m := heraModel(t)
	var freezes atomic.Int64
	m.Profile = slowProfile{Amdahl: speedup.Amdahl{Alpha: 0.1}, delay: 200 * time.Microsecond, calls: &freezes}

	const requests = 16
	var wg sync.WaitGroup
	results := make([]optimize.PatternResult, requests)
	cachedFlags := make([]bool, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], cachedFlags[i], errs[i] = e.Optimize(context.Background(), m, optimize.PatternOptions{})
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d got a different result", i)
		}
	}
	st := e.Stats()
	// All requests raced in before a result was cached, so every one of
	// them either led the single flight or attached to it; exactly one
	// solve ran. (A request arriving after completion would hit the LRU
	// instead — also fine, also counted as cached.)
	solves := 0
	for _, c := range cachedFlags {
		if !c {
			solves++
		}
	}
	if solves != 1 {
		t.Errorf("%d requests paid for a solve, want exactly 1 (dedup=%d)", solves, st.Deduplicated)
	}
	if st.Deduplicated+st.OptimizeCache.Hits != requests-1 {
		t.Errorf("dedup (%d) + cache hits (%d) should cover the other %d requests",
			st.Deduplicated, st.OptimizeCache.Hits, requests-1)
	}
}

// A cancelled request context aborts an in-flight campaign (once no other
// request wants it) and surfaces context.Canceled.
func TestEngineSimulateCancellation(t *testing.T) {
	e := NewEngine(Options{MaxConcurrent: 2})
	m := heraModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A campaign big enough (≈10⁸ patterns) to outlive the
		// cancellation below by a wide margin.
		_, _, err := e.Simulate(ctx, m, 6240, 219, sim.RunConfig{
			Runs: 200000, Patterns: 500, Seed: 1,
		})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not abort")
	}
	if e.Stats().Cancelled == 0 {
		t.Error("cancellation not counted")
	}
}

// The scheduler bound must hold: no more than MaxConcurrent jobs execute
// at once, later jobs queue and still complete. The jobs sample the
// engine's own in-flight gauge from inside their solve, so the
// observation is deterministic (every running job sees at least itself).
func TestEngineSchedulerBound(t *testing.T) {
	const bound = 2
	e := NewEngine(Options{MaxConcurrent: bound})

	var peak atomic.Int64
	observe := func() {
		n := e.Stats().InFlight
		if n > bound {
			t.Errorf("in-flight %d exceeds bound %d", n, bound)
		}
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	}

	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct α per request defeats dedup and caching, so every
			// job occupies a scheduler slot of its own.
			m := heraModel(t)
			m.Profile = slowProfile{
				Amdahl: speedup.Amdahl{Alpha: 0.1 + float64(i)/1000},
				delay:  50 * time.Microsecond,
				calls:  &calls,
				onCall: observe,
			}
			if _, _, err := e.Optimize(context.Background(), m, optimize.PatternOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() < 1 {
		t.Error("gauge never observed a running job")
	}
}

// A full wait queue sheds load immediately with ErrSaturated instead of
// queueing without bound; draining the queue restores admission.
func TestEngineSaturationShedsLoad(t *testing.T) {
	e := NewEngine(Options{MaxConcurrent: 1, MaxQueued: 1})

	// Occupy the only executing slot.
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the one queue slot with a waiter parked on the scheduler.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiter := make(chan error, 1)
	go func() { waiter <- e.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full: the next job must be rejected at once, not block.
	if err := e.acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("acquire on a full queue returned %v, want ErrSaturated", err)
	}
	st := e.Stats()
	if st.Saturated != 1 {
		t.Errorf("Saturated = %d, want 1", st.Saturated)
	}
	if st.Queued != 1 || st.InFlight != 1 {
		t.Errorf("Queued/InFlight = %d/%d, want 1/1", st.Queued, st.InFlight)
	}
	if st.MaxQueued != 1 {
		t.Errorf("MaxQueued = %d, want 1", st.MaxQueued)
	}

	// Freeing the slot admits the queued waiter...
	e.release()
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
	// ...and with the queue drained, admission works again.
	e.release()
	if err := e.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after drain failed: %v", err)
	}
	e.release()
}

// A negative MaxQueued disables shedding: waiters queue without bound
// (the historical behaviour) and leave when their context is cancelled.
func TestEngineUnboundedQueue(t *testing.T) {
	e := NewEngine(Options{MaxConcurrent: 1, MaxQueued: -1})
	if err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- e.acquire(ctx) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Queued < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters queued", e.Stats().Queued, waiters)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if n := e.Stats().Saturated; n != 0 {
		t.Errorf("unbounded queue shed %d jobs", n)
	}
	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v", err)
		}
	}
	e.release()
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("missing fresh entry")
	}
	c.Add("c", 3) // b is now the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept the least recently used entry")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Error("recently touched entry evicted instead")
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Error("newest entry evicted instead")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

// A NaN or infinite processor count must be rejected, not cached under a
// NaN key as an all-NaN evaluator.
func TestEngineRejectsNonFiniteP(t *testing.T) {
	e := NewEngine(Options{})
	m := heraModel(t)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.Evaluate(m, 6240, p); err == nil {
			t.Errorf("P=%g accepted", p)
		}
	}
	if n := e.Stats().FrozenCache.Entries; n != 0 {
		t.Errorf("rejected requests left %d cache entries", n)
	}
}

// A zero-valued campaign config and one spelling out the defaults are
// the same campaign and must share one cache entry.
func TestEngineSimulateKeyNormalized(t *testing.T) {
	e := NewEngine(Options{})
	m := heraModel(t)
	// Tiny budget via explicit values equal to what RunConfig.WithDefaults
	// would fill in for the zero value... the defaults are 500×500, too
	// slow for a unit test, so exercise the equivalence the other way:
	// Workers must not split the cache (it is normalized out).
	first, _, err := e.Simulate(context.Background(), m, 6240, 219,
		sim.RunConfig{Runs: 10, Patterns: 10, Seed: 5, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	second, cached, err := e.Simulate(context.Background(), m, 6240, 219,
		sim.RunConfig{Runs: 10, Patterns: 10, Seed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("campaigns differing only in Workers did not share a cache entry")
	}
	if second.Overhead != first.Overhead {
		t.Error("shared entry returned different stats")
	}
}

func TestFlightGroupAbandonCancelsWork(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _, _ = g.do(ctx, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			close(aborted)
			return nil, ctx.Err()
		})
	}()
	<-started
	cancel() // last (only) waiter hangs up → the flight must be cancelled
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned flight kept running")
	}
}

// A request arriving after the last waiter abandoned a flight must start
// a fresh one, not attach to the dying call and inherit its
// context.Canceled.
func TestFlightGroupAbandonedKeyRestarts(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	release := make(chan struct{})
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	go func() {
		_, _, _ = g.do(ctxA, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			// Linger before returning: the dying call must not be
			// re-attachable (nor clobber a fresh call's map entry) while
			// it winds down.
			<-release
			return nil, ctx.Err()
		})
	}()
	<-started
	cancelA()
	// Wait until the abandoned flight is unpublished.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, present := g.m["k"]
		g.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never unpublished its key")
		}
		time.Sleep(100 * time.Microsecond)
	}
	done := make(chan struct{})
	go func() {
		v, _, err := g.do(context.Background(), "k", func(ctx context.Context) (any, error) {
			return 42, nil
		})
		if err != nil {
			t.Errorf("fresh flight inherited an error: %v", err)
		} else if v != 42 {
			t.Errorf("fresh flight returned %v, want 42", v)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fresh flight blocked behind the dying one")
	}
	close(release) // let the old goroutine finish; its guarded delete must be a no-op
}
