package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"amdahlyd/internal/atomicio"
	"amdahlyd/internal/campaign"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// The study campaign is timed layer by layer in serve-cold's traced run,
// not as a workload of its own: its cells are bound by the artifact
// fsync, and on a 2-vCPU VM the disk's fsync latency drifts by ±25% over
// minutes, so per-cell latency, throughput and study wall time spread by
// 0.25–0.36 (quartile distance over median) over ten 20 s runs, beyond
// the largest bound an end-to-end metric may have. Per-layer metrics
// carry no bound, so the campaign layers are still measured there.

// The campaign's shared Monte-Carlo budget (runs × patterns per cell). At
// the presets' 500×500 default the robustness preset's machine-level
// cells alone take ~50 s; at 10×10 they take about half of a ~0.3 s
// study, so solves, pattern-level and two-level simulation and artifact
// banking still carry the other half.
const (
	campaignRuns     = 10
	campaignPatterns = 10
)

// campaignSeeds is how many master seeds, all derived from -seed, the
// campaign passes cycle through; each seed runs twice, so every study's
// reports are also compared across two passes.
const campaignSeeds = 8

// campaignStudy is the six preset manifests at the shared budget and one
// master seed, with their expanded plans.
type campaignStudy struct {
	manifests []campaign.Manifest
	plans     []*campaign.Plan
}

func newCampaignStudy(master uint64) (campaignStudy, error) {
	var st campaignStudy
	for _, name := range campaignPresets {
		m, err := campaign.Preset(name)
		if err != nil {
			return st, err
		}
		m.Runs, m.Patterns, m.Seed = campaignRuns, campaignPatterns, master
		plan, err := campaign.Expand(m)
		if err != nil {
			return st, err
		}
		st.manifests = append(st.manifests, m)
		st.plans = append(st.plans, plan)
	}
	return st, nil
}

// studyRun is one pass over the six presets.
type studyRun struct {
	runTime   []time.Duration // per preset
	summaries []campaign.Summary
	errs      []error
}

// runStudy runs every preset into dir/<preset> in turn, with the default
// Workers.
func (st campaignStudy) runStudy(ctx context.Context, dir string, resume bool) studyRun {
	r := studyRun{runTime: make([]time.Duration, len(st.manifests)),
		summaries: make([]campaign.Summary, len(st.manifests)), errs: make([]error, len(st.manifests))}
	for i, m := range st.manifests {
		t0 := time.Now()
		r.summaries[i], r.errs[i] = campaign.Run(ctx, m, campaign.Options{
			OutDir: filepath.Join(dir, campaignPresets[i]), Resume: resume})
		r.runTime[i] = time.Since(t0)
	}
	return r
}

// campaignRun is the state of a traced run's campaign section.
type campaignRun struct {
	studies []campaignStudy // pass i runs studies[i % campaignSeeds]
	root    string
	// reports holds, per study and preset, report.txt + report.csv of the
	// study's first pass.
	reports map[[2]int][]byte
	out     *outcome
	passes  int
	runTime []time.Duration // per preset, summed over passes
	planned []int           // per preset, summed over passes
	retries int
	failed  int // cells
}

// timeCampaign is the campaign section of serve-cold's traced run: one
// caller runs campaign.Run over the six study presets, 2×campaignSeeds
// passes each into a fresh directory under workdir, then times the
// campaign's layers cell by cell and runs the campaign's correctness
// gate. Failed cells count as failed operations of the run; gate
// mismatches as correctness-gate failures. The output is removed at the
// end.
func timeCampaign(cfg config, out *outcome) error {
	root, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("campaign-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(root); err != nil { // a stale directory of the same PID
		return err
	}
	defer os.RemoveAll(root)
	cr := &campaignRun{root: root, out: out,
		runTime: make([]time.Duration, len(campaignPresets)), planned: make([]int, len(campaignPresets))}
	seeds := rng.New(cfg.seed).SplitString("campaign")
	for k := 0; k < campaignSeeds; k++ {
		st, err := newCampaignStudy(seeds.Split(uint64(k)).Uint64())
		if err != nil {
			return err
		}
		cr.studies = append(cr.studies, st)
	}
	for cr.passes < 2*campaignSeeds {
		cr.pass()
	}

	rep := out.rep
	for i, p := range campaignPresets {
		rep.set("campaign.cells_per_s."+p, float64(cr.planned[i])/cr.runTime[i].Seconds(), -1)
	}
	rep.set("campaign.retries", float64(cr.retries), -1)
	rep.set("campaign.failed", float64(cr.failed), -1)
	if cr.failed == 0 {
		// The layer timings compare against pass 0's artifacts, which a
		// failed cell would leave missing.
		lt, err := cr.studies[0].layerTimes(filepath.Join(root, "layers"), filepath.Join(root, "pass-0"))
		if err != nil {
			return err
		}
		total := (lt.solve + lt.sim + lt.bank).Seconds()
		rep.set("campaign.solve_s", lt.solve.Seconds(), -1)
		rep.set("campaign.sim_s", lt.sim.Seconds(), -1)
		rep.set("campaign.bank_s", lt.bank.Seconds(), -1)
		rep.set("campaign.solve_share", lt.solve.Seconds()/total, -1)
		rep.set("campaign.sim_share", lt.sim.Seconds()/total, -1)
		rep.set("campaign.bank_share", lt.bank.Seconds()/total, -1)
		if lt.machineTime > 0 && lt.mlTime > 0 {
			rep.set("sim.machine.patterns_per_s", lt.machinePatterns/lt.machineTime.Seconds(), -1)
			rep.set("multilevel.sim.patterns_per_s", lt.mlPatterns/lt.mlTime.Seconds(), -1)
		}
	}
	cr.resumeGate()
	rep.input("campaign seed %d (passes cycle through %d campaign master seeds derived from it)", cfg.seed, campaignSeeds)
	rep.input("campaign budget %d runs x %d patterns per cell, default Workers (%d)", campaignRuns, campaignPatterns, runtime.GOMAXPROCS(0))
	line := "campaign cells"
	for i, p := range cr.studies[0].plans {
		line += fmt.Sprintf(" %s=%d/%dchains", campaignPresets[i], len(p.Cells), len(p.Chains))
	}
	rep.input("%s", line)
	rep.input("campaign passes %d", cr.passes)
	return nil
}

// pass runs one pass over the six presets into its own directory. Each
// preset must bank every planned cell and reproduce, byte for byte, the
// reports of its study's first pass.
func (cr *campaignRun) pass() {
	dir := filepath.Join(cr.root, fmt.Sprintf("pass-%d", cr.passes))
	k := cr.passes % len(cr.studies)
	st := cr.studies[k]
	r := st.runStudy(context.Background(), dir, false)
	for i, s := range r.summaries {
		cells := len(st.plans[i].Cells)
		cr.out.attempted += cells
		cr.planned[i] += cells
		cr.runTime[i] += r.runTime[i]
		cr.retries += s.Retries
		if err := r.errs[i]; err != nil || s.Failed > 0 || s.Executed != cells {
			cr.failed += cells - s.Executed
			cr.out.failed += cells - s.Executed
			if cr.out.firstErr == nil {
				cr.out.firstErr = fmt.Errorf("campaign %s: executed %d of %d cells, %d failed: %v",
					campaignPresets[i], s.Executed, cells, s.Failed, err)
			}
			continue
		}
		cr.checkReport(k, i, filepath.Join(dir, campaignPresets[i]))
	}
	cr.passes++
}

// checkReport compares preset i's report with the one the first pass of
// study k wrote.
func (cr *campaignRun) checkReport(k, i int, dir string) {
	got, err := readReport(dir)
	if cr.reports == nil {
		cr.reports = map[[2]int][]byte{}
	}
	first, seen := cr.reports[[2]int{k, i}]
	switch {
	case err != nil:
	case !seen:
		cr.reports[[2]int{k, i}] = got
		return
	case !bytes.Equal(got, first):
		err = errors.New("report differs from the first pass's report for the same seed")
	default:
		return
	}
	cr.out.gateFailed++
	if cr.out.gateErr == nil {
		cr.out.gateErr = fmt.Errorf("campaign %s: %w", campaignPresets[i], err)
	}
}

func readReport(dir string) ([]byte, error) {
	txt, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		return nil, err
	}
	csv, err := os.ReadFile(filepath.Join(dir, "report.csv"))
	if err != nil {
		return nil, err
	}
	return append(txt, csv...), nil
}

// resumeGate resumes every preset of the first pass: each must re-verify
// all its artifacts without executing a cell, and rewrite its report
// byte for byte.
func (cr *campaignRun) resumeGate() {
	dir := filepath.Join(cr.root, "pass-0")
	r := cr.studies[0].runStudy(context.Background(), dir, true)
	for i, s := range r.summaries {
		planned := len(cr.studies[0].plans[i].Cells)
		var err error
		switch {
		case r.errs[i] != nil:
			err = r.errs[i]
		case s.Executed != 0 || s.Skipped != planned || s.Failed != 0:
			err = fmt.Errorf("resume executed %d, skipped %d of %d cells, %d failed", s.Executed, s.Skipped, planned, s.Failed)
		}
		if err != nil {
			cr.out.gateFailed++
			if cr.out.gateErr == nil {
				cr.out.gateErr = fmt.Errorf("campaign %s resume: %w", campaignPresets[i], err)
			}
			continue
		}
		cr.checkReport(0, i, filepath.Join(dir, campaignPresets[i]))
	}
	cr.out.rep.input("campaign gate resumed %d presets of pass 0; %d passes compared report bytes", len(r.summaries), cr.passes)
}

// campaignLayers is where a campaign's cell work goes, cell by cell.
type campaignLayers struct {
	solve, sim, bank time.Duration
	// Monte-Carlo work of the simulators only the campaign runs:
	// patterns played and time taken.
	machinePatterns, mlPatterns float64
	machineTime, mlTime         time.Duration
}

// layerTimes solves every chain with the solver the executor uses for
// its protocol, prices every cell on the executor's simulator, and seals
// and banks each cell's artifact with atomicio as the executor does,
// timing each part. Every artifact must equal, byte for byte, the one
// the timed run banked for the same cell under banked (pass 0 of study
// 0): that proves these timings cover the program's own work, and a
// change to the executor that this copy does not follow stops the run.
func (st campaignStudy) layerTimes(dir, banked string) (*campaignLayers, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	lt := &campaignLayers{}
	for pi, plan := range st.plans {
		man := plan.Manifest
		for _, chain := range plan.Chains {
			solve := chainSolver(chain[0].Protocol, man.ColdSolve)
			for _, c := range chain {
				t0 := time.Now()
				a, err := solve(c)
				lt.solve += time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("%s: solving %s: %w", campaignPresets[pi], c.Label(), err)
				}
				a.Version, a.CellID, a.Label, a.Protocol = 1, c.ID, c.Label(), c.Protocol
				a.Runs, a.Patterns, a.Seed = man.Runs, man.Patterns, c.Seed
				if err := lt.simulate(ctx, c, &a); err != nil {
					return nil, fmt.Errorf("%s: simulating %s: %w", campaignPresets[pi], c.Label(), err)
				}
				t0 = time.Now()
				payload, err := sealArtifact(a)
				if err != nil {
					return nil, err
				}
				if err := atomicio.WriteFileBytes(filepath.Join(dir, c.ID+".json"), payload); err != nil {
					return nil, err
				}
				lt.bank += time.Since(t0)
				want, err := os.ReadFile(filepath.Join(banked, campaignPresets[pi], "cells", c.ID+".json"))
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(payload, want) {
					return nil, fmt.Errorf("%s: the layer timings' artifact for %s differs from the one campaign.Run banked; "+
						"the executor no longer does what this benchmark times:\n  timed:  %s\n  banked: %s",
						campaignPresets[pi], c.Label(), payload, want)
				}
			}
		}
	}
	return lt, nil
}

// sealArtifact returns the file the executor writes for a: the indented
// JSON with the SHA-256 checksum of its checksum-less form, and a
// trailing newline.
func sealArtifact(a campaign.Artifact) ([]byte, error) {
	a.Checksum = ""
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf)
	a.Checksum = hex.EncodeToString(sum[:])
	if buf, err = json.MarshalIndent(a, "", "  "); err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// chainSolver returns the warm-start solve the executor runs for a
// chain of the protocol (integral allocations for the multilevel and
// hetero protocols, as the executor configures them). The solve returns
// the artifact fields it fills.
func chainSolver(protocol string, cold bool) func(c *campaign.Cell) (campaign.Artifact, error) {
	switch protocol {
	case campaign.ProtocolHetero:
		s := hetero.NewSweepSolver(hetero.SweepOptions{
			PatternOptions: hetero.PatternOptions{PatternOptions: optimize.PatternOptions{IntegerP: true}},
			Cold:           cold,
		})
		return func(c *campaign.Cell) (campaign.Artifact, error) {
			res, err := s.Solve(c.Hetero)
			a := campaign.Artifact{PredictedH: res.Overhead, Warm: res.Warm, G: res.Active}
			for _, g := range res.Groups {
				a.Groups = append(a.Groups, campaign.HeteroGroupArtifact{Group: g.Group, Fraction: g.Fraction,
					T: g.T, P: g.P, Overhead: g.GroupOverhead, AtPBound: g.AtPBound})
				a.AtPBound = a.AtPBound || g.AtPBound
			}
			return a, err
		}
	case campaign.ProtocolMultilevel:
		s := multilevel.NewSweepSolver(multilevel.SweepOptions{
			PatternOptions: multilevel.PatternOptions{IntegerP: true},
			Cold:           cold,
		})
		return func(c *campaign.Cell) (campaign.Artifact, error) {
			res, err := s.Solve(c.Model, multilevel.InMemoryFraction(c.Model, c.Frac))
			return campaign.Artifact{T: res.T, K: res.K, P: res.P, PredictedH: res.PredictedH,
				AtPBound: res.AtPBound, Warm: res.Warm}, err
		}
	default:
		s := optimize.NewSweepSolver(optimize.SweepOptions{Cold: cold})
		return func(c *campaign.Cell) (campaign.Artifact, error) {
			res, err := s.Solve(c.Model)
			return campaign.Artifact{T: res.T, P: res.P, PredictedH: res.Overhead,
				AtPBound: res.AtPBound, Warm: res.Warm}, err
		}
	}
}

// simulate prices a solved cell on the simulator the executor uses for
// it (hetero, two-level, machine-level for non-exponential laws, else
// pattern-level) and fills the artifact's Monte-Carlo fields as the
// executor does, marking unsimulable patterns.
func (lt *campaignLayers) simulate(ctx context.Context, c *campaign.Cell, a *campaign.Artifact) error {
	cfg := sim.RunConfig{Runs: a.Runs, Patterns: a.Patterns, Seed: c.Seed, Workers: 1}
	work := float64(a.Runs * a.Patterns)
	t0 := time.Now()
	var overhead stats.Summary
	var patterns *float64 // the simulator's work counter
	var took *time.Duration
	switch {
	case c.Protocol == campaign.ProtocolHetero:
		groups := make([]sim.HeteroGroupRun, len(a.Groups))
		for i, g := range a.Groups {
			m, err := c.Hetero.ActiveModel(g.Group, a.G)
			if err != nil {
				return err
			}
			groups[i] = sim.HeteroGroupRun{Model: m, T: g.T, P: g.P, Fraction: g.Fraction}
		}
		res, err := sim.SimulateHeteroContext(ctx, groups, cfg)
		if errors.Is(err, sim.ErrErrorPressure) {
			a.Unsimulable = true
			return nil
		}
		if err != nil {
			return err
		}
		overhead = res.Overhead
	case c.Protocol == campaign.ProtocolMultilevel:
		if a.AtPBound {
			a.Unsimulable = true
			return nil
		}
		costs, err := multilevel.SingleLevelCosts(c.Model, a.P, c.Frac)
		if err != nil {
			return err
		}
		lf, ls := c.Model.Rates(a.P)
		s, err := multilevel.NewSimulator(costs, multilevel.Pattern{T: a.T, K: a.K}, lf, ls)
		if err != nil {
			return err
		}
		res, err := s.SimulateContext(ctx, multilevel.CampaignConfig{Runs: a.Runs, Patterns: a.Patterns,
			Seed: c.Seed, Workers: 1, HOfP: c.Model.Profile.Overhead(a.P)})
		if err != nil {
			return err
		}
		overhead, patterns, took = res.Overhead, &lt.mlPatterns, &lt.mlTime
	default:
		t, p := a.T, a.P
		if c.Dist != nil {
			procs := max(1, int(math.Round(a.P)))
			if procs > 1<<16 {
				a.Unsimulable = true
				return nil
			}
			a.SimProcs, p = procs, float64(procs)
			cfg.Machine, cfg.Dist = true, c.Dist
			patterns, took = &lt.machinePatterns, &lt.machineTime
		}
		res, err := sim.SimulateContext(ctx, c.Model, t, p, cfg)
		if errors.Is(err, sim.ErrErrorPressure) {
			a.Unsimulable = true
			return nil
		}
		if err != nil {
			return err
		}
		overhead = res.Overhead
	}
	d := time.Since(t0)
	lt.sim += d
	if patterns != nil {
		*patterns += work
		*took += d
	}
	a.SimH, a.SimCI = floatPtr(overhead.Mean), floatPtr(overhead.CI95)
	return nil
}

// floatPtr boxes v for the artifact as the executor does, NaN as null.
func floatPtr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}
