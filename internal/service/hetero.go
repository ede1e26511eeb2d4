package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/xmath"
)

// Heterogeneous results need no service-side version prefix: the model
// key itself is versioned at the core layer (HeteroModel.CacheKey opens
// with "hg1|"), so a layout change bumps every derived cache and flight
// key at once. The service only appends its per-operation namespaces.

// appendHGOptionsKey appends the canonical encoding of the joint
// heterogeneous optimizer options (every field is observable in the
// result).
func appendHGOptionsKey(dst []byte, o hetero.PatternOptions) []byte {
	dst = append(appendOptionsKey(dst, o.PatternOptions), ",maxg="...)
	return strconv.AppendInt(dst, int64(o.MaxGroups), 10)
}

// heteroSweepKeys is sweepKeys for an axis of heterogeneous models.
func heteroSweepKeys(models []core.HeteroModel, cold bool, opts []byte) ([]string, error) {
	var buf [heteroKeyBuf]byte
	keys := make([]string, len(models))
	for i, hm := range models {
		hmk, err := hm.AppendCacheKey(buf[:0])
		if err != nil {
			return nil, err
		}
		keys[i] = string(append(appendOptKey(hmk, "", !cold), opts...))
	}
	return keys, nil
}

// HeteroOptimize returns the joint heterogeneous optimum (active set,
// work split, per-group patterns) for the compiled topology, memoizing by
// canonical (model, options) key and deduplicating concurrent identical
// requests. The result is bit-identical to hetero.OptimalPattern — the
// engine only adds reuse.
func (e *Engine) HeteroOptimize(ctx context.Context, hm core.HeteroModel, opts hetero.PatternOptions) (res hetero.PatternResult, cached bool, err error) {
	e.hgOptCalls.Add(1)
	var buf [heteroKeyBuf]byte
	hmk, err := hm.AppendCacheKey(buf[:0])
	if err != nil {
		return res, false, err
	}
	key := appendHGOptionsKey(appendOptKey(hmk, "", false), opts)
	if r, ok := e.hgOptimizes.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.hgOptimizes, string(key), func(context.Context) (hetero.PatternResult, error) {
		return hetero.OptimalPattern(hm, opts)
	})
}

// appendHGSimKey appends to the model key hmk (which pins every group's
// model, size and the comm term) the canonical encoding of a
// heterogeneous campaign request: the per-group plan in plan order and
// the campaign shape. Workers is deliberately excluded — per-run and
// per-group streams make results worker-count independent (pinned by
// the sim hetero tests).
func appendHGSimKey(hmk []byte, plan []hetero.GroupPlan, cfg sim.RunConfig) []byte {
	hmk = append(hmk, "#sim#"...)
	for _, gp := range plan {
		hmk = strconv.AppendInt(hmk, int64(gp.Group), 10)
		hmk = xmath.AppendFloatKey(append(hmk, ':'), gp.T)
		hmk = xmath.AppendFloatKey(append(hmk, ':'), gp.P)
		hmk = xmath.AppendFloatKey(append(hmk, ':'), gp.Fraction)
		hmk = append(hmk, ';')
	}
	return appendCampaignShape(hmk, cfg.Runs, cfg.Patterns, cfg.Seed)
}

// validatePlan holds a request-supplied plan to the cache-key standard
// and to the sim layer's preconditions: in-range distinct group indices,
// finite positive T, P between 1 and the group's size, fractions in
// (0, 1].
func validatePlan(hm core.HeteroModel, plan []hetero.GroupPlan) error {
	if len(plan) == 0 {
		return errors.New("service: heterogeneous plan with no groups")
	}
	if len(plan) > len(hm.Groups) {
		return fmt.Errorf("service: plan with %d entries for %d groups", len(plan), len(hm.Groups))
	}
	seen := make(map[int]bool, len(plan))
	for i, gp := range plan {
		if gp.Group < 0 || gp.Group >= len(hm.Groups) {
			return fmt.Errorf("service: plan entry %d: group index %d outside [0, %d)", i, gp.Group, len(hm.Groups))
		}
		if seen[gp.Group] {
			return fmt.Errorf("service: plan entry %d: duplicate group %d", i, gp.Group)
		}
		seen[gp.Group] = true
		if !(gp.T > 0) || math.IsInf(gp.T, 0) {
			return fmt.Errorf("service: plan entry %d: period T = %g must be positive and finite", i, gp.T)
		}
		if !(gp.P >= 1) || math.IsInf(gp.P, 0) {
			return fmt.Errorf("service: plan entry %d: allocation P = %g must be >= 1 and finite", i, gp.P)
		}
		if size := hm.Groups[gp.Group].Size; !(gp.P <= size) {
			return fmt.Errorf("service: plan entry %d: allocation P = %g exceeds group %d's %g processors",
				i, gp.P, gp.Group, size)
		}
		if !(gp.Fraction > 0 && gp.Fraction <= 1) {
			return fmt.Errorf("service: plan entry %d: work fraction %g outside (0,1]", i, gp.Fraction)
		}
	}
	return nil
}

// HeteroSimulate runs (or replays from cache) a seeded heterogeneous
// Monte-Carlo campaign for the given per-group plan. Results are
// bit-identical to sim.SimulateHeteroContext on the same plan; concurrent
// identical campaigns run once.
func (e *Engine) HeteroSimulate(ctx context.Context, hm core.HeteroModel, plan []hetero.GroupPlan, runs, patterns int, seed uint64) (res sim.HeteroRunResult, cached bool, err error) {
	e.hgSimCalls.Add(1)
	var buf [heteroKeyBuf]byte
	hmk, err := hm.AppendCacheKey(buf[:0])
	if err != nil {
		return res, false, err
	}
	if err := validatePlan(hm, plan); err != nil {
		return res, false, err
	}
	cfg := sim.RunConfig{Runs: runs, Patterns: patterns, Seed: seed}.WithDefaults()
	cfg.Workers = campaignWorkers
	key := appendHGSimKey(hmk, plan, cfg)
	if r, ok := e.hgSims.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.hgSims, string(key), func(ctx context.Context) (sim.HeteroRunResult, error) {
		groups, err := hetero.GroupRuns(hm, plan)
		if err != nil {
			return sim.HeteroRunResult{}, err
		}
		return sim.SimulateHeteroContext(ctx, groups, cfg)
	})
}

// ---------------------------------------------------------------------
// HTTP surface.
// ---------------------------------------------------------------------

// TopologySpec selects a heterogeneous platform the way the experiment
// tools do: inline groups (the platform.Group JSON shape) coupled by a
// comm coefficient, compiled at a Table III scenario with the usual
// alpha/downtime defaults (0.1 and 3600 s, as for ModelSpec). A request
// with the same groups, scenario and calibration parameters compiles the
// identical core.HeteroModel the library would — and therefore returns
// bit-identical numbers.
type TopologySpec struct {
	// Name labels the topology; defaults to "request".
	Name string `json:"name,omitempty"`
	// Comm is the inter-group communication coefficient κ ≥ 0.
	Comm float64 `json:"comm,omitempty"`
	// Groups lists the tiles in topology order (order is meaningful:
	// group indices identify groups in plans and results).
	Groups []platform.Group `json:"groups"`
	// Scenario is the Table III cost scenario (default 1).
	Scenario int `json:"scenario,omitempty"`
	// Alpha is the sequential fraction; null/omitted means 0.1.
	Alpha *float64 `json:"alpha,omitempty"`
	// Downtime D in seconds; null/omitted means 3600.
	Downtime *float64 `json:"downtime,omitempty"`
}

// Build compiles the spec through the library path
// (platform.Topology.Validate → hetero.CompileTopology).
func (s TopologySpec) Build() (core.HeteroModel, platform.Topology, error) {
	name := s.Name
	if name == "" {
		name = "request"
	}
	tp := platform.Topology{Name: name, Comm: s.Comm, Groups: s.Groups}
	scenario := s.Scenario
	if scenario == 0 {
		scenario = 1
	}
	sc := costmodel.Scenario(scenario)
	if !sc.Valid() {
		return core.HeteroModel{}, platform.Topology{}, fmt.Errorf("scenario %d outside 1-6", scenario)
	}
	hm, err := hetero.CompileTopology(tp, sc, orDefault(s.Alpha, experiments.DefaultAlpha),
		orDefault(s.Downtime, experiments.DefaultDowntime))
	if err != nil {
		return core.HeteroModel{}, platform.Topology{}, err
	}
	return hm, tp, nil
}

// withComm returns the spec with the comm coefficient replaced by v (the
// hetero sweep's "comm" axis).
func (s TopologySpec) withComm(v float64) TopologySpec {
	s.Comm = v
	return s
}

// HeteroOptions is the JSON shape of hetero.PatternOptions: the shared
// per-group search box plus the active-group cap.
type HeteroOptions struct {
	OptimizeOptions
	MaxGroups int `json:"max_groups,omitempty"`
}

func (o HeteroOptions) pattern() hetero.PatternOptions {
	return hetero.PatternOptions{
		PatternOptions: o.OptimizeOptions.pattern(),
		MaxGroups:      o.MaxGroups,
	}
}

// HeteroOptimizeRequest computes the joint heterogeneous optimum.
type HeteroOptimizeRequest struct {
	Topology TopologySpec  `json:"topology"`
	Options  HeteroOptions `json:"options,omitempty"`
}

// HeteroGroupPlanJSON is one active group's share of the joint optimum.
type HeteroGroupPlanJSON struct {
	Group    int     `json:"group"`
	Name     string  `json:"name,omitempty"`
	Fraction float64 `json:"fraction"`
	T        float64 `json:"t"`
	P        float64 `json:"p"`
	// Overhead is the group's effective overhead A_g (including the comm
	// charge of the active count) per unit of its own work.
	Overhead float64 `json:"overhead"`
	AtPBound bool    `json:"at_p_bound,omitempty"`
}

func groupPlansJSON(tp platform.Topology, plans []hetero.GroupPlan) []HeteroGroupPlanJSON {
	out := make([]HeteroGroupPlanJSON, len(plans))
	for i, gp := range plans {
		out[i] = HeteroGroupPlanJSON{
			Group:    gp.Group,
			Name:     groupName(tp, gp.Group),
			Fraction: gp.Fraction,
			T:        gp.T,
			P:        gp.P,
			Overhead: gp.GroupOverhead,
			AtPBound: gp.AtPBound,
		}
	}
	return out
}

// groupName is the topology's name for group g; empty when g is out of
// range.
func groupName(tp platform.Topology, g int) string {
	if g >= 0 && g < len(tp.Groups) {
		return tp.Groups[g].Name
	}
	return ""
}

// HeteroOptimizeResponse is the solved joint plan.
type HeteroOptimizeResponse struct {
	Overhead float64               `json:"overhead"`
	Active   int                   `json:"active"`
	Groups   []HeteroGroupPlanJSON `json:"groups"`
	Evals    int                   `json:"evals"`
	Cached   bool                  `json:"cached"`
}

// HeteroPlanGroup fixes one group's share of a simulated plan.
type HeteroPlanGroup struct {
	Group    int     `json:"group"`
	T        float64 `json:"t"`
	P        float64 `json:"p"`
	Fraction float64 `json:"fraction"`
}

// HeteroSimulateRequest runs a seeded heterogeneous Monte-Carlo
// campaign. An omitted plan simulates the joint optimum for the topology
// (solved through the same cache as /v1/hetero/optimize) — the
// heterogeneous analogue of amdahl-sim's Theorem 1 defaulting.
type HeteroSimulateRequest struct {
	Topology TopologySpec      `json:"topology"`
	Plan     []HeteroPlanGroup `json:"plan,omitempty"`
	// Options tunes the optimum solved for an omitted plan; ignored when
	// an explicit plan is given.
	Options  HeteroOptions `json:"options,omitempty"`
	Runs     int           `json:"runs,omitempty"`
	Patterns int           `json:"patterns,omitempty"`
	Seed     uint64        `json:"seed,omitempty"`
}

// HeteroGroupSimJSON is one group's simulated share.
type HeteroGroupSimJSON struct {
	Group    int     `json:"group"`
	Name     string  `json:"name,omitempty"`
	Fraction float64 `json:"fraction"`
	T        float64 `json:"t"`
	P        float64 `json:"p"`
	// Overhead summarizes the group's own simulated overhead H_g (per
	// unit of the group's work, before the fraction scaling).
	Overhead SummaryJSON `json:"overhead"`
	// PredictedH is the group's exact-formula overhead at its pattern.
	PredictedH float64 `json:"predicted_overhead"`
}

// HeteroSimulateResponse mirrors sim.HeteroRunResult plus the per-group
// exact-formula predictions for the simulated plan.
type HeteroSimulateResponse struct {
	// Overhead summarizes the per-run makespan overhead max_g x_g·H_g.
	Overhead SummaryJSON          `json:"overhead"`
	Groups   []HeteroGroupSimJSON `json:"groups"`
	// PredictedH is the exact-formula makespan overhead of the plan:
	// max_g x_g·H_g(T_g, P_g).
	PredictedH       float64 `json:"predicted_overhead"`
	FailStops        int64   `json:"fail_stops"`
	SilentDetections int64   `json:"silent_detections"`
	Recoveries       int64   `json:"recoveries"`
	Runs             int     `json:"runs"`
	Patterns         int     `json:"patterns"`
	Cached           bool    `json:"cached"`
}

// HeteroSweepSpec selects the heterogeneous protocol for a sweep axis:
// every cell is solved as a joint (active set, split, T_g, P_g) optimum
// by the heterogeneous warm-start chain, and rows carry the active count
// and per-group plans. The axis must be "comm" — the topology's coupling
// coefficient is the smooth axis of the heterogeneous analysis.
type HeteroSweepSpec struct {
	Topology  TopologySpec `json:"topology"`
	MaxGroups int          `json:"max_groups,omitempty"`
}

func (s *Server) heteroOptimize(ctx context.Context, req *HeteroOptimizeRequest) (any, error) {
	hm, tp, err := req.Topology.Build()
	if err != nil {
		return nil, err
	}
	res, cached, err := s.engine.HeteroOptimize(ctx, hm, req.Options.pattern())
	if err != nil {
		return nil, err
	}
	return HeteroOptimizeResponse{
		Overhead: res.Overhead,
		Active:   res.Active,
		Groups:   groupPlansJSON(tp, res.Groups),
		Evals:    res.Evals,
		Cached:   cached,
	}, nil
}

func (s *Server) heteroSimulate(ctx context.Context, req *HeteroSimulateRequest) (any, error) {
	hm, tp, err := req.Topology.Build()
	if err != nil {
		return nil, err
	}
	// Every group plays its own pattern stream, so the request's work is
	// groups × runs × patterns — budget accordingly.
	groups := len(req.Plan)
	if groups == 0 {
		groups = len(hm.Groups)
	}
	if err := checkBudget(req.Runs, req.Patterns, groups); err != nil {
		return nil, err
	}
	var plan []hetero.GroupPlan
	if len(req.Plan) == 0 {
		// Default the plan from the joint optimum, through the optimize
		// cache (a prior /v1/hetero/optimize primes this request).
		res, _, err := s.engine.HeteroOptimize(ctx, hm, req.Options.pattern())
		if err != nil {
			return nil, err
		}
		plan = res.Groups
	} else {
		plan = make([]hetero.GroupPlan, len(req.Plan))
		for i, pg := range req.Plan {
			plan[i] = hetero.GroupPlan{Group: pg.Group, T: pg.T, P: pg.P, Fraction: pg.Fraction}
		}
	}
	res, cached, err := s.engine.HeteroSimulate(ctx, hm, plan, req.Runs, req.Patterns, req.Seed)
	if err != nil {
		return nil, err
	}
	runs, err := hetero.GroupRuns(hm, plan)
	if err != nil {
		return nil, err
	}
	gout := make([]HeteroGroupSimJSON, len(plan))
	predicted := 0.0
	for i, gp := range plan {
		//lint:allow frozenloop response assembly: one probe per group, each on its own per-group model
		h := runs[i].Model.Overhead(gp.T, gp.P)
		if gh := gp.Fraction * h; gh > predicted {
			predicted = gh
		}
		gout[i] = HeteroGroupSimJSON{
			Group:      gp.Group,
			Name:       groupName(tp, gp.Group),
			Fraction:   gp.Fraction,
			T:          gp.T,
			P:          gp.P,
			Overhead:   summaryJSON(res.GroupOverheads[i]),
			PredictedH: h,
		}
	}
	return HeteroSimulateResponse{
		Overhead:         summaryJSON(res.Overhead),
		Groups:           gout,
		PredictedH:       predicted,
		FailStops:        res.FailStops,
		SilentDetections: res.SilentDetections,
		Recoveries:       res.Recoveries,
		Runs:             res.Config.Runs,
		Patterns:         res.Config.Patterns,
		Cached:           cached,
	}, nil
}
