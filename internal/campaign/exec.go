package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"amdahlyd/internal/atomicio"
	"amdahlyd/internal/backoff"
	"amdahlyd/internal/core"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// Options tunes the executor. The zero value runs a fresh campaign with
// sensible robustness defaults; only OutDir is required.
type Options struct {
	// OutDir is the campaign directory: manifest.json, journal.ndjson,
	// cells/<id>.json artifacts and the final report live here.
	OutDir string
	// Resume re-enters an existing campaign directory: completed cells
	// are verified by checksum and skipped (their solve results re-warm
	// the chains), everything else re-runs. Without Resume, a directory
	// that already holds this campaign's manifest is refused.
	Resume bool
	// Workers bounds chain-level parallelism (default GOMAXPROCS).
	// Cells inside a chain are inherently sequential (warm-starting),
	// and per-cell Monte-Carlo runs single-worker, so results never
	// depend on Workers.
	Workers int
	// MaxAttempts bounds the tries per cell (default 3): transient
	// failures — injected faults, per-attempt timeouts, panics — retry
	// with exponential backoff and deterministic jitter up to this
	// limit, then fail the cell permanently.
	MaxAttempts int
	// RetryBase is the first backoff delay (default 100 ms); attempt n
	// waits RetryBase·2^(n-1) plus up to 100% deterministic jitter.
	RetryBase time.Duration
	// CellTimeout bounds each attempt (0 = none); a deadline hit counts
	// as a transient failure and retries.
	CellTimeout time.Duration
	// FailureBudget is the number of permanently failed cells tolerated
	// before the campaign aborts fast (default 0: the first permanent
	// failure cancels all outstanding work). Any permanent failure —
	// within budget or not — means no final report; the budget only
	// controls how much resumable progress the run banks first.
	FailureBudget int
	// Faults injects deterministic misbehaviour into named cells; the
	// test suite's crash/retry/budget proofs run on it.
	Faults FaultPlan
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase == 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	return o
}

// Summary reports how a campaign run spent its cells. Planned is the
// full grid; Skipped cells were verified from a previous run; Executed
// cells ran here; Retries counts recovered transient failures; Failed
// counts permanent cell failures (nonzero Failed means no report).
type Summary struct {
	Planned, Skipped, Executed int
	Unsimulable                int
	Retries, Failed            int
	// ReportText and ReportCSV are the aggregate report paths (empty
	// when the campaign did not complete).
	ReportText, ReportCSV string
}

type runner struct {
	man  Manifest
	plan *Plan
	opts Options
	jrn  *journal

	cancel context.CancelCauseFunc

	skipped, executed, retries atomic.Int64
	failed                     atomic.Int64
	failMu                     sync.Mutex
	firstFail                  error
}

// Run executes (or resumes) the campaign described by the manifest into
// opts.OutDir and returns the run summary. On success the aggregate
// report is written atomically; any permanent cell failure or
// cancellation returns an error after banking all completed cells as
// artifacts, so a later Resume finishes the difference.
func Run(ctx context.Context, manifest Manifest, opts Options) (Summary, error) {
	// Zero keeps each default; a negative value has no meaning (a
	// negative MaxAttempts would run no attempt at all).
	if opts.Workers < 0 || opts.MaxAttempts < 0 || opts.FailureBudget < 0 || opts.CellTimeout < 0 {
		return Summary{}, fmt.Errorf("campaign: negative option in Workers %d, MaxAttempts %d, FailureBudget %d, CellTimeout %v (0 keeps each default)",
			opts.Workers, opts.MaxAttempts, opts.FailureBudget, opts.CellTimeout)
	}
	opts = opts.withDefaults()
	if opts.OutDir == "" {
		return Summary{}, errors.New("campaign: Options.OutDir is required")
	}
	plan, err := Expand(manifest)
	if err != nil {
		return Summary{}, err
	}
	if err := os.MkdirAll(filepath.Join(opts.OutDir, "cells"), 0o755); err != nil {
		return Summary{}, fmt.Errorf("campaign: %w", err)
	}
	if err := pinManifest(plan.Manifest, opts); err != nil {
		return Summary{}, err
	}
	jrn, err := openJournal(opts.OutDir)
	if err != nil {
		return Summary{}, err
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r := &runner{man: plan.Manifest, plan: plan, opts: opts, jrn: jrn, cancel: cancel}
	event := "start"
	if opts.Resume {
		event = "resume"
	}
	jrn.log(journalEntry{Event: event, Detail: fmt.Sprintf("%s: %d cells in %d chains",
		plan.Manifest.Name, len(plan.Cells), len(plan.Chains))})

	// Chains are independent; cells within a chain are sequential by
	// construction. Cell failures reach the budget below and cancellation
	// reaches ctx, so the pool's own error adds nothing.
	_ = sim.ForEachRun(ctx, len(plan.Chains), opts.Workers, func(ctx context.Context, i int) error {
		r.runChain(ctx, plan.Chains[i])
		return nil
	})

	sum := Summary{
		Planned:  len(plan.Cells),
		Skipped:  int(r.skipped.Load()),
		Executed: int(r.executed.Load()),
		Retries:  int(r.retries.Load()),
		Failed:   int(r.failed.Load()),
	}
	// The journal flushes on every exit path — clean finish, SIGINT
	// cancellation, budget abort — so the last thing a reader sees is
	// what actually happened.
	closeJournal := func(outcome string, detail string) error {
		jrn.log(journalEntry{Event: outcome, Detail: detail})
		return jrn.close()
	}
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		closeJournal("aborted", cause.Error())
		return sum, cause
	}
	if sum.Failed > 0 {
		r.failMu.Lock()
		first := r.firstFail
		r.failMu.Unlock()
		closeJournal("failed", fmt.Sprintf("%d permanent cell failures", sum.Failed))
		return sum, fmt.Errorf("campaign: %d cells failed permanently (first: %w); completed cells are banked, fix and -resume", sum.Failed, first)
	}

	txt, csv, unsim, err := r.writeReport()
	if err != nil {
		closeJournal("failed", err.Error())
		return sum, err
	}
	sum.ReportText, sum.ReportCSV, sum.Unsimulable = txt, csv, unsim
	jrn.log(journalEntry{Event: "report", Detail: txt})
	if err := closeJournal("done", fmt.Sprintf("skipped %d, executed %d", sum.Skipped, sum.Executed)); err != nil {
		return sum, err
	}
	return sum, nil
}

// pinManifest stores the canonical manifest in the output directory on a
// fresh start and verifies it on any later entry: a directory can only
// ever hold one campaign, and -resume cannot silently re-plan a
// different grid over existing artifacts.
func pinManifest(m Manifest, opts Options) error {
	canon, err := m.MarshalCanonical()
	if err != nil {
		return err
	}
	path := filepath.Join(opts.OutDir, "manifest.json")
	existing, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(existing, canon) {
			return fmt.Errorf("campaign: %s holds a different campaign manifest; use a fresh output directory", opts.OutDir)
		}
		if !opts.Resume {
			return fmt.Errorf("campaign: %s already holds this campaign; pass resume to continue it", opts.OutDir)
		}
		return nil
	case os.IsNotExist(err):
		return atomicio.WriteFileBytes(path, canon)
	default:
		return fmt.Errorf("campaign: %w", err)
	}
}

// chainSolver abstracts the three warm-start solvers behind the cell
// loop: solve the next cell into the solve-phase fields of its artifact,
// or observe a verified artifact so the chain stays warm across skipped
// cells (the service cache-hit idiom).
type chainSolver interface {
	solve(c *Cell) (Artifact, error)
	observe(c *Cell, a *Artifact)
}

type singleSolver struct{ s *optimize.SweepSolver }

func (ss singleSolver) solve(c *Cell) (Artifact, error) {
	res, err := ss.s.Solve(c.Model)
	return Artifact{T: res.T, P: res.P, PredictedH: res.Overhead,
		AtPBound: res.AtPBound, Warm: res.Warm}, err
}

func (ss singleSolver) observe(c *Cell, a *Artifact) {
	ss.s.Observe(c.Model, optimize.PatternResult{
		Solution: core.Solution{T: a.T, P: a.P, Overhead: a.PredictedH},
		AtPBound: a.AtPBound,
	})
}

type mlSolver struct{ s *multilevel.SweepSolver }

func (ms mlSolver) solve(c *Cell) (Artifact, error) {
	res, err := ms.s.Solve(c.Model, multilevel.InMemoryFraction(c.Model, c.Frac))
	return Artifact{T: res.T, K: res.K, P: res.P, PredictedH: res.PredictedH,
		AtPBound: res.AtPBound, Warm: res.Warm}, err
}

func (ms mlSolver) observe(c *Cell, a *Artifact) {
	ms.s.Observe(multilevel.PatternResult{
		Plan: multilevel.Plan{
			Pattern:    multilevel.Pattern{T: a.T, K: a.K},
			PredictedH: a.PredictedH,
		},
		P:        a.P,
		AtPBound: a.AtPBound,
	})
}

type heteroSolver struct{ s *hetero.SweepSolver }

// solve records the joint plan: the active count, one group artifact
// per active group, and AtPBound when any group stopped at its bound.
func (hs heteroSolver) solve(c *Cell) (Artifact, error) {
	res, err := hs.s.Solve(c.Hetero)
	a := Artifact{PredictedH: res.Overhead, Warm: res.Warm, G: res.Active}
	for _, g := range res.Groups {
		a.Groups = append(a.Groups, HeteroGroupArtifact{Group: g.Group, Fraction: g.Fraction,
			T: g.T, P: g.P, Overhead: g.GroupOverhead, AtPBound: g.AtPBound})
		a.AtPBound = a.AtPBound || g.AtPBound
	}
	return a, err
}

func (hs heteroSolver) observe(c *Cell, a *Artifact) {
	hs.s.Observe(c.Hetero, hetero.PatternResult{
		Groups: a.heteroPlan(), Active: a.G, Overhead: a.PredictedH,
	})
}

// heteroPlan is the artifact's per-group plan in the optimizer's shape.
func (a *Artifact) heteroPlan() []hetero.GroupPlan {
	plans := make([]hetero.GroupPlan, len(a.Groups))
	for i, g := range a.Groups {
		plans[i] = hetero.GroupPlan{Group: g.Group, Fraction: g.Fraction,
			T: g.T, P: g.P, GroupOverhead: g.Overhead, AtPBound: g.AtPBound}
	}
	return plans
}

func (r *runner) newSolver() chainSolver {
	switch r.man.Protocol {
	case ProtocolHetero:
		// IntegerP for the same reason as multilevel below: integral
		// per-group allocations keep warm and cold chains on the same
		// cells, and the priced plan stays physical.
		return heteroSolver{hetero.NewSweepSolver(hetero.SweepOptions{
			PatternOptions: hetero.PatternOptions{
				PatternOptions: optimize.PatternOptions{IntegerP: true},
			},
			Cold: r.man.ColdSolve,
		})}
	case ProtocolMultilevel:
		// IntegerP keeps the joint optimum on integral allocations so
		// warm and cold chains land on bit-identical cells (mirrors the
		// multilevel study).
		return mlSolver{multilevel.NewSweepSolver(multilevel.SweepOptions{
			PatternOptions: multilevel.PatternOptions{IntegerP: true},
			Cold:           r.man.ColdSolve,
		})}
	default:
		return singleSolver{optimize.NewSweepSolver(optimize.SweepOptions{Cold: r.man.ColdSolve})}
	}
}

// runChain walks one warm-start chain in axis order: verified artifacts
// are observed and skipped, everything else is solved and priced. A
// permanent cell failure is recorded against the budget but does not
// stop the chain — later cells still make banked, resumable progress.
func (r *runner) runChain(ctx context.Context, chain []*Cell) {
	solver := r.newSolver()
	for _, c := range chain {
		if ctx.Err() != nil {
			return
		}
		if art, err := loadArtifact(r.opts.OutDir, c, r.man.Runs, r.man.Patterns); err == nil {
			solver.observe(c, art)
			r.skipped.Add(1)
			r.jrn.log(journalEntry{Event: "skip", Cell: c.Label(), ID: c.ID})
			continue
		} else if !os.IsNotExist(errors.Unwrap(err)) && !os.IsNotExist(err) {
			// A present-but-unverifiable artifact (torn write survivor,
			// hand edit, plan drift) re-runs; say why.
			r.jrn.log(journalEntry{Event: "invalid-artifact", Cell: c.Label(), ID: c.ID, Error: err.Error()})
		}

		a, err := solver.solve(c)
		if err != nil {
			// Solver errors are deterministic (bad search box, invalid
			// model) — retrying cannot help; fail the cell permanently.
			r.recordFailure(c, fmt.Errorf("campaign: solving %s: %w", c.Label(), err))
			continue
		}
		a.Version, a.CellID, a.Label, a.Seed = artifactVersion, c.ID, c.Label(), c.Seed
		a.Runs, a.Patterns, a.Protocol = r.man.Runs, r.man.Patterns, c.Protocol
		if err := r.price(ctx, c, &a); err != nil {
			if ctx.Err() != nil {
				return
			}
			r.recordFailure(c, err)
			continue
		}
		if err := writeArtifact(r.opts.OutDir, a); err != nil {
			r.recordFailure(c, fmt.Errorf("campaign: writing artifact for %s: %w", c.Label(), err))
			continue
		}
		r.executed.Add(1)
		r.jrn.log(journalEntry{Event: "done", Cell: c.Label(), ID: c.ID})
	}
}

// recordFailure books a permanent cell failure and aborts the campaign
// fast once the failure budget is exceeded.
func (r *runner) recordFailure(c *Cell, err error) {
	r.jrn.log(journalEntry{Event: "fail", Cell: c.Label(), ID: c.ID, Error: err.Error()})
	r.failMu.Lock()
	if r.firstFail == nil {
		r.firstFail = err
	}
	r.failMu.Unlock()
	if int(r.failed.Add(1)) > r.opts.FailureBudget {
		r.cancel(fmt.Errorf("campaign: failure budget exceeded (%d > %d): %w",
			r.failed.Load(), r.opts.FailureBudget, err))
	}
}

// price runs the cell's Monte-Carlo phase with retry, backoff and fault
// injection. It fills the artifact's simulated fields; a nil return with
// Unsimulable set is a completed cell whose pattern is off the simulable
// map (error pressure, oversized machine population).
func (r *runner) price(ctx context.Context, c *Cell, a *Artifact) error {
	fault, _ := r.opts.Faults.find(c)
	var last error
	for attempt := 1; attempt <= r.opts.MaxAttempts; attempt++ {
		err := r.attempt(ctx, c, a, fault, attempt)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The campaign is shutting down (SIGINT, budget abort):
			// stop immediately, the cell stays un-banked for resume.
			return context.Cause(ctx)
		}
		last = err
		if attempt == r.opts.MaxAttempts {
			break
		}
		r.retries.Add(1)
		// RetryBase·2^(attempt-1) plus up to 100% jitter derived
		// deterministically from the cell seed and attempt (splitmix64) —
		// the shared internal/backoff schedule — so co-failing cells
		// decorrelate without making runs nondeterministic.
		delay := backoff.Delay(r.opts.RetryBase, attempt, c.Seed)
		r.jrn.log(journalEntry{Event: "retry", Cell: c.Label(), ID: c.ID,
			Attempt: attempt, Error: err.Error(), Detail: delay.String()})
		if err := sleepCtx(ctx, delay); err != nil {
			return err
		}
	}
	return fmt.Errorf("campaign: cell %s failed after %d attempts: %w", c.Label(), r.opts.MaxAttempts, last)
}

// attempt runs one try: injected delay, injected failure, then the real
// simulation under the per-attempt timeout. Panics — injected or real —
// surface as retryable errors.
func (r *runner) attempt(ctx context.Context, c *Cell, a *Artifact, fault Fault, attempt int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: cell %s attempt %d panicked: %v", c.Label(), attempt, p)
		}
	}()
	actx := ctx
	if r.opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.opts.CellTimeout)
		defer cancel()
	}
	if fault.DelayMS > 0 {
		if err := sleepCtx(actx, time.Duration(fault.DelayMS)*time.Millisecond); err != nil {
			return err
		}
	}
	if attempt <= fault.FailAttempts {
		if fault.Panic {
			panic(ErrInjected)
		}
		return fmt.Errorf("%w (attempt %d)", ErrInjected, attempt)
	}
	return r.simulate(actx, c, a)
}

// simulate prices the solved cell on the protocol's simulator with the
// cell's deterministic seed. Per-run streams are seed-derived, so the
// result is independent of scheduling; Workers stays 1 because the
// parallelism budget lives at the chain level. A pattern off the
// simulable map (error pressure, an oversized machine population, a
// two-level optimum at the allocation bound) completes unsimulable.
func (r *runner) simulate(ctx context.Context, c *Cell, a *Artifact) error {
	cfg := sim.RunConfig{Runs: r.man.Runs, Patterns: r.man.Patterns, Seed: c.Seed, Workers: 1}
	var (
		overhead stats.Summary
		err      error
	)
	switch {
	case c.Protocol == ProtocolHetero:
		var groups []sim.HeteroGroupRun
		if groups, err = hetero.GroupRuns(c.Hetero, a.heteroPlan()); err != nil {
			return err
		}
		var res sim.HeteroRunResult
		res, err = sim.SimulateHeteroContext(ctx, groups, cfg)
		overhead = res.Overhead

	case c.Protocol == ProtocolMultilevel:
		if a.AtPBound {
			// At-bound optima stay unsimulated, as in the multilevel study.
			a.Unsimulable = true
			return nil
		}
		var res multilevel.CampaignResult
		res, err = multilevel.SimulateModel(ctx, c.Model, c.Frac, multilevel.Pattern{T: a.T, K: a.K}, a.P,
			multilevel.CampaignConfig{Runs: cfg.Runs, Patterns: cfg.Patterns, Seed: cfg.Seed, Workers: 1})
		overhead = res.Overhead

	case c.Dist != nil:
		// Non-memoryless law: replay the exponential-optimal pattern on
		// the machine-level simulator at the rounded integral allocation
		// (the robustness-study pricing protocol).
		procs := int(math.Round(a.P))
		if procs < 1 {
			procs = 1
		}
		if procs > sim.MaxMachineProcs {
			a.Unsimulable = true
			return nil
		}
		a.SimProcs = procs
		cfg.Machine, cfg.Dist = true, c.Dist
		var res sim.RunResult
		res, err = sim.SimulateContext(ctx, c.Model, a.T, float64(procs), cfg)
		overhead = res.Overhead

	default:
		var res sim.RunResult
		res, err = sim.SimulateContext(ctx, c.Model, a.T, a.P, cfg)
		overhead = res.Overhead
	}
	if errors.Is(err, sim.ErrErrorPressure) {
		a.Unsimulable = true
		return nil
	}
	if err != nil {
		return err
	}
	a.SimH, a.SimCI = floatPtr(overhead.Mean), floatPtr(overhead.CI95)
	return nil
}

// sleepCtx sleeps for d or until the context dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
