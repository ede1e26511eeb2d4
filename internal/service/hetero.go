package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"amdahlyd/internal/core"
	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
)

// Heterogeneous results need no service-side version prefix: the model
// key itself is versioned at the core layer (HeteroModel.CacheKey opens
// with "hg1|"), so a layout change bumps every derived cache and flight
// key at once. The service only appends its per-operation namespaces.

// hgOptionsKey canonically encodes the joint heterogeneous optimizer
// options (every field is observable in the result).
func hgOptionsKey(o hetero.PatternOptions) string {
	return optionsKey(o.PatternOptions) + fmt.Sprintf(",maxg=%d", o.MaxGroups)
}

// HeteroOptimize returns the joint heterogeneous optimum (active set,
// work split, per-group patterns) for the compiled topology, memoizing by
// canonical (model, options) key and deduplicating concurrent identical
// requests. The result is bit-identical to hetero.OptimalPattern — the
// engine only adds reuse.
func (e *Engine) HeteroOptimize(ctx context.Context, hm core.HeteroModel, opts hetero.PatternOptions) (res hetero.PatternResult, cached bool, err error) {
	e.hgOptCalls.Add(1)
	hmk, err := hm.CacheKey()
	if err != nil {
		return res, false, err
	}
	key := optKey(hmk, "", false, hgOptionsKey(opts))
	if r, ok := e.hgOptimizes.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.hgOptimizes, key, func(context.Context) (hetero.PatternResult, error) {
		return hetero.OptimalPattern(hm, opts)
	})
}

// hgSimKey canonically encodes a heterogeneous campaign request: the
// model key (which pins every group's model, size and the comm term), the
// per-group plan in plan order, and the campaign shape. Workers is
// deliberately excluded — per-run and per-group streams make results
// worker-count independent (pinned by the sim hetero tests).
func hgSimKey(hmk string, plan []hetero.GroupPlan, cfg sim.RunConfig) string {
	var b strings.Builder
	b.WriteString(hmk)
	b.WriteString("#sim#")
	for _, gp := range plan {
		fmt.Fprintf(&b, "%d:%s:%s:%s;", gp.Group,
			core.FormatFloatKey(gp.T), core.FormatFloatKey(gp.P),
			core.FormatFloatKey(gp.Fraction))
	}
	fmt.Fprintf(&b, "%d,%d,%d", cfg.Runs, cfg.Patterns, cfg.Seed)
	return b.String()
}

// validatePlan holds a request-supplied plan to the cache-key standard
// and to the sim layer's preconditions: in-range distinct group indices,
// finite positive T and P, fractions in (0, 1].
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
	hmk, err := hm.CacheKey()
	if err != nil {
		return res, false, err
	}
	if err := validatePlan(hm, plan); err != nil {
		return res, false, err
	}
	cfg := sim.RunConfig{Runs: runs, Patterns: patterns, Seed: seed}.WithDefaults()
	cfg.Workers = e.opts.SimWorkers
	key := hgSimKey(hmk, plan, cfg)
	if r, ok := e.hgSims.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.hgSims, key, func(ctx context.Context) (sim.HeteroRunResult, error) {
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
	alpha := experiments.DefaultAlpha
	if s.Alpha != nil {
		alpha = *s.Alpha
	}
	downtime := experiments.DefaultDowntime
	if s.Downtime != nil {
		downtime = *s.Downtime
	}
	hm, err := hetero.CompileTopology(tp, sc, alpha, downtime)
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
			Fraction: gp.Fraction,
			T:        gp.T,
			P:        gp.P,
			Overhead: gp.GroupOverhead,
			AtPBound: gp.AtPBound,
		}
		if gp.Group >= 0 && gp.Group < len(tp.Groups) {
			out[i].Name = tp.Groups[gp.Group].Name
		}
	}
	return out
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

func (s *Server) handleHeteroOptimize(w http.ResponseWriter, r *http.Request) {
	var req HeteroOptimizeRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	hm, tp, err := req.Topology.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, cached, err := s.engine.HeteroOptimize(r.Context(), hm, req.Options.pattern())
	if err != nil {
		writeErr(w, statusFor(r.Context(), err), err)
		return
	}
	writeJSON(w, http.StatusOK, HeteroOptimizeResponse{
		Overhead: res.Overhead,
		Active:   res.Active,
		Groups:   groupPlansJSON(tp, res.Groups),
		Evals:    res.Evals,
		Cached:   cached,
	})
}

func (s *Server) handleHeteroSimulate(w http.ResponseWriter, r *http.Request) {
	var req HeteroSimulateRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	hm, tp, err := req.Topology.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Runs < 0 || req.Patterns < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("runs and patterns must be non-negative"))
		return
	}
	eff := sim.RunConfig{Runs: req.Runs, Patterns: req.Patterns}.WithDefaults()
	// Every group plays its own pattern stream, so the request's work is
	// groups × runs × patterns — budget accordingly.
	groups := len(req.Plan)
	if groups == 0 {
		groups = len(hm.Groups)
	}
	if budget := float64(eff.Runs) * float64(eff.Patterns) * float64(groups); budget > maxRequestPatternBudget {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf(
			"campaign budget %d×%d×%d exceeds the per-request limit of %g patterns",
			groups, eff.Runs, eff.Patterns, float64(maxRequestPatternBudget)))
		return
	}
	var plan []hetero.GroupPlan
	if len(req.Plan) == 0 {
		// Default the plan from the joint optimum, through the optimize
		// cache (a prior /v1/hetero/optimize primes this request).
		res, _, err := s.engine.HeteroOptimize(r.Context(), hm, req.Options.pattern())
		if err != nil {
			writeErr(w, statusFor(r.Context(), err), err)
			return
		}
		plan = res.Groups
	} else {
		plan = make([]hetero.GroupPlan, len(req.Plan))
		for i, pg := range req.Plan {
			plan[i] = hetero.GroupPlan{Group: pg.Group, T: pg.T, P: pg.P, Fraction: pg.Fraction}
		}
	}
	res, cached, err := s.engine.HeteroSimulate(r.Context(), hm, plan, req.Runs, req.Patterns, req.Seed)
	if err != nil {
		writeErr(w, statusFor(r.Context(), err), err)
		return
	}
	runs, err := hetero.GroupRuns(hm, plan)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
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
			Fraction:   gp.Fraction,
			T:          gp.T,
			P:          gp.P,
			Overhead:   summaryJSON(res.GroupOverheads[i]),
			PredictedH: h,
		}
		if gp.Group >= 0 && gp.Group < len(tp.Groups) {
			gout[i].Name = tp.Groups[gp.Group].Name
		}
	}
	writeJSON(w, http.StatusOK, HeteroSimulateResponse{
		Overhead:         summaryJSON(res.Overhead),
		Groups:           gout,
		PredictedH:       predicted,
		FailStops:        res.FailStops,
		SilentDetections: res.SilentDetections,
		Recoveries:       res.Recoveries,
		Runs:             res.Config.Runs,
		Patterns:         res.Config.Patterns,
		Cached:           cached,
	})
}
