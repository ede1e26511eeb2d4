package service

import (
	"context"
	"fmt"
	"math"
	"net/http"

	"amdahlyd/internal/core"
	"amdahlyd/internal/multilevel"
)

// Two-level results live under a versioned key extension so a layout
// change in the multilevel result types can never alias the single-level
// namespaces: every multilevel cache and flight key embeds mlKeyVersion.
const mlKeyVersion = "ml1|"

// mlOptionsKey canonically encodes the in-memory fraction and the
// joint-optimizer options (every field is observable in the result).
func mlOptionsKey(frac float64, o multilevel.PatternOptions) string {
	return fmt.Sprintf("%s#%s,%s,%t", core.FormatFloatKey(frac),
		core.FormatFloatKey(o.PMin), core.FormatFloatKey(o.PMax), o.IntegerP)
}

// validateFraction holds the request-supplied in-memory fraction to the
// cache-key standard before it is keyed: NaN never compares equal, so a
// NaN-keyed entry could never be hit or evicted by a repeat request.
func validateFraction(frac float64) error {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		return fmt.Errorf("service: in-memory fraction %g must be finite", frac)
	}
	return nil
}

// MultilevelOptimize returns the joint two-level (T*, K*, P*) optimum
// for the model with an in-memory level at frac·C_P, memoizing by
// canonical (model, fraction, options) key under the ml1| namespace and
// deduplicating concurrent identical requests. The result is
// bit-identical to multilevel.OptimalPattern — the engine only adds
// reuse.
func (e *Engine) MultilevelOptimize(ctx context.Context, m core.Model, frac float64, opts multilevel.PatternOptions) (res multilevel.PatternResult, cached bool, err error) {
	e.mlOptCalls.Add(1)
	if err := validateFraction(frac); err != nil {
		return res, false, err
	}
	mk, err := m.CacheKey()
	if err != nil {
		return res, false, err
	}
	key := optKey(mk, mlKeyVersion, false, mlOptionsKey(frac, opts))
	if r, ok := e.mlOptimizes.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.mlOptimizes, key, func(context.Context) (multilevel.PatternResult, error) {
		return multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, frac), opts)
	})
}

// mlSimKey canonically encodes a two-level campaign request. Workers and
// HOfP are deliberately excluded: per-run streams make results
// worker-count independent, and H(P) is derived from the model and P,
// both already in the key.
func mlSimKey(mk string, frac float64, pat multilevel.Pattern, p float64, cfg multilevel.CampaignConfig) string {
	return fmt.Sprintf("%s#%ssim#%s,%s,%d,%s,%d,%d,%d",
		mk, mlKeyVersion, core.FormatFloatKey(frac),
		core.FormatFloatKey(pat.T), pat.K, core.FormatFloatKey(p),
		cfg.Runs, cfg.Patterns, cfg.Seed)
}

// MultilevelSimulate runs (or replays from cache) a seeded two-level
// Monte-Carlo campaign for PATTERN(T, K) at P processors, with costs
// derived from the model (multilevel.SimulateModel at frac). Results are
// bit-identical to the library path; concurrent identical campaigns run
// once.
func (e *Engine) MultilevelSimulate(ctx context.Context, m core.Model, frac float64, pat multilevel.Pattern, p float64, runs, patterns int, seed uint64) (res multilevel.CampaignResult, cached bool, err error) {
	e.mlSimCalls.Add(1)
	if err := validateFraction(frac); err != nil {
		return res, false, err
	}
	if !(p >= 1) || math.IsInf(p, 0) {
		return res, false, fmt.Errorf("service: processor count P = %g must be >= 1 and finite", p)
	}
	mk, err := m.CacheKey()
	if err != nil {
		return res, false, err
	}
	cfg := multilevel.CampaignConfig{Runs: runs, Patterns: patterns, Seed: seed}.WithDefaults()
	cfg.Workers = e.opts.SimWorkers
	key := mlSimKey(mk, frac, pat, p, cfg)
	if r, ok := e.mlSims.Get(key); ok {
		return r, true, nil
	}
	return solveOnce(ctx, e, e.mlSims, key, func(ctx context.Context) (multilevel.CampaignResult, error) {
		return multilevel.SimulateModel(ctx, m, frac, pat, p, cfg)
	})
}

// ---------------------------------------------------------------------
// HTTP surface.
// ---------------------------------------------------------------------

// defaultInMemFraction is the in-memory checkpoint cost as a fraction of
// the disk checkpoint when the request omits it: 1/15, the 20 s-on-300 s
// ratio of the multilevel example study.
const defaultInMemFraction = 1.0 / 15

// MultilevelOptions is the JSON shape of multilevel.PatternOptions. The
// segment length has no search bounds: it is closed-form at every
// (K, P).
type MultilevelOptions struct {
	PMin     float64 `json:"p_min,omitempty"`
	PMax     float64 `json:"p_max,omitempty"`
	IntegerP bool    `json:"integer_p,omitempty"`
}

func (o MultilevelOptions) pattern() multilevel.PatternOptions {
	return multilevel.PatternOptions{PMin: o.PMin, PMax: o.PMax, IntegerP: o.IntegerP}
}

// MultilevelOptimizeRequest computes the joint two-level optimum
// (T*, K*, P*).
type MultilevelOptimizeRequest struct {
	Model ModelSpec `json:"model"`
	// InMemFraction prices the in-memory level at frac·C_P; null/omitted
	// selects the default 1/15, an explicit 0 a free in-memory level.
	InMemFraction *float64          `json:"in_mem_fraction,omitempty"`
	Options       MultilevelOptions `json:"options,omitempty"`
}

func (r MultilevelOptimizeRequest) fraction() float64 {
	if r.InMemFraction != nil {
		return *r.InMemFraction
	}
	return defaultInMemFraction
}

// MultilevelOptimizeResponse is the solved two-level pattern.
type MultilevelOptimizeResponse struct {
	T             float64 `json:"t"`
	K             int     `json:"k"`
	P             float64 `json:"p"`
	Overhead      float64 `json:"overhead"`
	InMemFraction float64 `json:"in_mem_fraction"`
	AtPBound      bool    `json:"at_p_bound,omitempty"`
	Evals         int     `json:"evals"`
	Cached        bool    `json:"cached"`
}

// MultilevelSimulateRequest runs a seeded two-level Monte-Carlo
// campaign. Zero-valued pattern fields default from the model: P to the
// platform's deployed count, K and T to the first-order optimum at that
// P (the two-level analogue of amdahl-sim's Theorem 1 defaulting).
type MultilevelSimulateRequest struct {
	Model         ModelSpec `json:"model"`
	InMemFraction *float64  `json:"in_mem_fraction,omitempty"`
	T             float64   `json:"t,omitempty"`
	K             int       `json:"k,omitempty"`
	P             float64   `json:"p,omitempty"`
	Runs          int       `json:"runs,omitempty"`
	Patterns      int       `json:"patterns,omitempty"`
	Seed          uint64    `json:"seed,omitempty"`
}

func (r MultilevelSimulateRequest) fraction() float64 {
	if r.InMemFraction != nil {
		return *r.InMemFraction
	}
	return defaultInMemFraction
}

// MultilevelSimulateResponse mirrors multilevel.CampaignResult plus the
// first-order prediction for the simulated pattern.
type MultilevelSimulateResponse struct {
	T                float64     `json:"t"`
	K                int         `json:"k"`
	P                float64     `json:"p"`
	InMemFraction    float64     `json:"in_mem_fraction"`
	Overhead         SummaryJSON `json:"overhead"`
	PredictedH       float64     `json:"predicted_overhead"`
	FailStops        int64       `json:"fail_stops"`
	SilentDetections int64       `json:"silent_detections"`
	DiskRecoveries   int64       `json:"disk_recoveries"`
	MemRecoveries    int64       `json:"mem_recoveries"`
	Runs             int         `json:"runs"`
	Patterns         int         `json:"patterns"`
	Cached           bool        `json:"cached"`
}

func (s *Server) handleMultilevelOptimize(w http.ResponseWriter, r *http.Request) {
	var req MultilevelOptimizeRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, _, err := req.Model.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, cached, err := s.engine.MultilevelOptimize(r.Context(), m, req.fraction(), req.Options.pattern())
	if err != nil {
		writeErr(w, statusFor(r.Context(), err), err)
		return
	}
	writeJSON(w, http.StatusOK, MultilevelOptimizeResponse{
		T:             res.T,
		K:             res.K,
		P:             res.P,
		Overhead:      res.PredictedH,
		InMemFraction: req.fraction(),
		AtPBound:      res.AtPBound,
		Evals:         res.Evals,
		Cached:        cached,
	})
}

func (s *Server) handleMultilevelSimulate(w http.ResponseWriter, r *http.Request) {
	var req MultilevelSimulateRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, pl, err := req.Model.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Runs < 0 || req.Patterns < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("runs and patterns must be non-negative"))
		return
	}
	eff := multilevel.CampaignConfig{Runs: req.Runs, Patterns: req.Patterns}.WithDefaults()
	if budget := float64(eff.Runs) * float64(eff.Patterns); budget > maxRequestPatternBudget {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf(
			"campaign budget %d×%d exceeds the per-request limit of %g patterns",
			eff.Runs, eff.Patterns, float64(maxRequestPatternBudget)))
		return
	}
	frac := req.fraction()
	p := req.P
	if p == 0 {
		p = pl.Processors
	}
	// One cost/rate derivation serves the pattern defaulting and the
	// first-order prediction below (the engine re-derives inside its
	// flight from the same inputs, bit-identically).
	costs, err := multilevel.SingleLevelCosts(m, p, frac)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	lf, ls := m.Rates(p)
	pat := multilevel.Pattern{T: req.T, K: req.K}
	if pat.K == 0 {
		// Default the pattern from the first-order optimum at P, exactly
		// the library sequence a CLI user would run; a given K with an
		// omitted T re-optimizes the segment length for that K.
		plan, err := multilevel.FirstOrder(costs, lf, ls, m.Profile.Overhead(p))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		pat.K = plan.K
		if pat.T == 0 {
			pat.T = plan.T
		}
	}
	if pat.T == 0 {
		pat.T = multilevel.OptimalSegmentLength(costs, pat.K, lf, ls)
	}
	res, cached, err := s.engine.MultilevelSimulate(r.Context(), m, frac, pat, p, req.Runs, req.Patterns, req.Seed)
	if err != nil {
		writeErr(w, statusFor(r.Context(), err), err)
		return
	}
	writeJSON(w, http.StatusOK, MultilevelSimulateResponse{
		T:                pat.T,
		K:                pat.K,
		P:                p,
		InMemFraction:    frac,
		Overhead:         summaryJSON(res.Overhead),
		PredictedH:       multilevel.Overhead(costs, pat, lf, ls, m.Profile.Overhead(p)),
		FailStops:        res.FailStops,
		SilentDetections: res.SilentDetections,
		DiskRecoveries:   res.DiskRecoveries,
		MemRecoveries:    res.MemRecoveries,
		Runs:             res.Config.Runs,
		Patterns:         res.Config.Patterns,
		Cached:           cached,
	})
}
