package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/experiments"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/stats"
)

// maxRequestBody bounds request bodies; every valid request is a small
// JSON object.
const maxRequestBody = 1 << 20

// Campaign budget caps for untrusted requests. The library accepts any
// budget, but over HTTP a single patient client could otherwise pin a
// scheduler slot for hours ({"runs":2e9,"patterns":2e9}) or OOM the
// machine simulator with a billion per-processor clocks. The pattern
// budget allows 4000× the paper's standard 500×500 campaign; machine-level
// P is capped at sim.MaxMachineProcs.
const (
	maxRequestPatternBudget = 1e9  // runs × patterns per request
	maxRequestSweepCells    = 4096 // axis values per sweep request
)

// ModelSpec selects a model the same way the CLI tools do: a Table II
// platform, a Table III scenario, the sequential fraction, the downtime,
// and an optional λ_ind override. Defaults mirror the CLI flags
// (alpha 0.1, downtime 3600 s), so an amdahl-serve request with the same
// parameters as an amdahl-opt/amdahl-sim invocation builds the identical
// core.Model — and therefore returns bit-identical numbers.
type ModelSpec struct {
	Platform string `json:"platform"`
	Scenario int    `json:"scenario"`
	// Alpha is the sequential fraction; null/omitted means the CLI
	// default 0.1, an explicit 0 selects the perfectly parallel profile
	// (exactly like the -alpha flag).
	Alpha *float64 `json:"alpha,omitempty"`
	// Downtime D in seconds; null/omitted means the CLI default 3600.
	Downtime *float64 `json:"downtime,omitempty"`
	// Lambda overrides the platform's λ_ind when positive (the -lambda
	// flag). Zero (or omitted) keeps the platform rate; a negative or
	// non-finite value is a request error, not a silent fallback.
	Lambda float64 `json:"lambda,omitempty"`
}

// Build resolves the spec into a model plus its platform, through the
// resolution every CLI runs (experiments.ResolveModel), after filling
// the request defaults: platform hera, scenario 1, α 0.1, D 3600 s.
func (s ModelSpec) Build() (core.Model, platform.Platform, error) {
	name, scenario := s.Platform, s.Scenario
	if name == "" {
		name = "hera"
	}
	if scenario == 0 {
		scenario = 1
	}
	return experiments.ResolveModel(name, scenario, orDefault(s.Alpha, experiments.DefaultAlpha),
		orDefault(s.Downtime, experiments.DefaultDowntime), s.Lambda)
}

// orDefault dereferences an optional request field.
func orDefault(v *float64, def float64) float64 {
	if v != nil {
		return *v
	}
	return def
}

// EvaluateRequest prices PATTERN(T, P). T = 0 selects the Theorem 1
// optimal period at P, P = 0 the platform's deployed processor count —
// the same defaulting as amdahl-sim's -T/-P flags.
type EvaluateRequest struct {
	Model ModelSpec `json:"model"`
	T     float64   `json:"t,omitempty"`
	P     float64   `json:"p,omitempty"`
}

// EvaluateResponse carries the evaluation and cache provenance.
type EvaluateResponse struct {
	Evaluation
	Platform string `json:"platform"`
}

// OptimizeRequest computes the numerical optimum (T*, P*).
type OptimizeRequest struct {
	Model ModelSpec `json:"model"`
	// Options tunes the search box; zero values select the defaults used
	// by every experiment in the paper.
	Options OptimizeOptions `json:"options,omitempty"`
}

// OptimizeOptions is the JSON shape of optimize.PatternOptions.
type OptimizeOptions struct {
	PMin     float64 `json:"p_min,omitempty"`
	PMax     float64 `json:"p_max,omitempty"`
	TMin     float64 `json:"t_min,omitempty"`
	TMax     float64 `json:"t_max,omitempty"`
	IntegerP bool    `json:"integer_p,omitempty"`
}

func (o OptimizeOptions) pattern() optimize.PatternOptions {
	return optimize.PatternOptions{
		PMin: o.PMin, PMax: o.PMax,
		TMin: o.TMin, TMax: o.TMax,
		IntegerP: o.IntegerP,
	}
}

// OptimizeResponse is the solved pattern.
type OptimizeResponse struct {
	T        float64 `json:"t"`
	P        float64 `json:"p"`
	Overhead float64 `json:"overhead"`
	Method   string  `json:"method"`
	Class    string  `json:"class,omitempty"`
	AtPBound bool    `json:"at_p_bound,omitempty"`
	Evals    int     `json:"evals"`
	Cached   bool    `json:"cached"`
}

// SweepRequest solves a whole sweep axis in one request: the base model
// with one parameter — the axis — replaced by each value in turn, the
// cells solved as a single warm-start chain on the engine (one scheduler
// slot, one cache entry per cell). The response is NDJSON: one SweepRow
// per value, streamed in order.
type SweepRequest struct {
	Model ModelSpec `json:"model"`
	// Axis names the swept parameter: "alpha", "lambda" or "downtime"
	// (the Fig. 4/5–6/7 axes).
	Axis string `json:"axis"`
	// Values are the axis coordinates, in sweep order. Adjacent values
	// warm-start each other, so order affects performance — and, at the
	// last-digit level, which refinement path each warm cell takes:
	// warm rows are reproducible only within the documented tolerance
	// of the per-cell optimum, not bitwise across request histories.
	// Use Cold for bitwise reproducibility.
	Values []float64 `json:"values"`
	// Options tunes the search box, as for /v1/optimize.
	Options OptimizeOptions `json:"options,omitempty"`
	// Cold disables warm-starting: every cell pays the full grid scan and
	// is bit-identical to (and shares cache entries with) /v1/optimize
	// (or /v1/multilevel/optimize for a multilevel sweep).
	Cold bool `json:"cold,omitempty"`
	// Multilevel switches the axis to the two-level protocol: every cell
	// is solved as a joint (T, K, P) optimum by the multilevel warm-start
	// chain, and rows carry the segment count K.
	Multilevel *MultilevelSweepSpec `json:"multilevel,omitempty"`
	// Hetero switches the axis to the heterogeneous protocol: the base
	// model is the spec's topology (Model is ignored), the axis must be
	// "comm", and every cell is solved as a joint (active set, split,
	// T_g, P_g) optimum by the heterogeneous warm-start chain. Rows carry
	// the active count G and the per-group plans.
	Hetero *HeteroSweepSpec `json:"hetero,omitempty"`
}

// MultilevelSweepSpec selects the two-level protocol for a sweep axis.
type MultilevelSweepSpec struct {
	// InMemFraction prices the in-memory level at frac·C_P; null/omitted
	// selects the default 1/15 (as for /v1/multilevel/optimize).
	InMemFraction *float64 `json:"in_mem_fraction,omitempty"`
}

// withAxis returns the spec with the axis parameter replaced by v.
func (s ModelSpec) withAxis(axis string, v float64) (ModelSpec, error) {
	switch axis {
	case "alpha":
		s.Alpha = &v
	case "lambda":
		if !(v > 0) {
			return s, fmt.Errorf("lambda axis value %g must be positive", v)
		}
		s.Lambda = v
	case "downtime":
		s.Downtime = &v
	default:
		return s, fmt.Errorf("unknown sweep axis %q (want alpha, lambda or downtime)", axis)
	}
	return s, nil
}

// SweepRow is one NDJSON line of a sweep response.
type SweepRow struct {
	X float64 `json:"x"`
	T float64 `json:"t"`
	// K is the two-level segment count; present only on multilevel
	// sweeps (single-level patterns have no segment structure).
	K        int     `json:"k,omitempty"`
	P        float64 `json:"p"`
	Overhead float64 `json:"overhead"`
	Method   string  `json:"method"`
	Class    string  `json:"class,omitempty"`
	AtPBound bool    `json:"at_p_bound,omitempty"`
	Evals    int     `json:"evals"`
	// G is the active group count and Groups the per-group plans; present
	// only on heterogeneous sweeps (T and P are per-group there, so the
	// scalar fields are left zero).
	G      int                   `json:"g,omitempty"`
	Groups []HeteroGroupPlanJSON `json:"groups,omitempty"`
	// Warm reports that the cell was solved in the warm bracket of its
	// neighbour; Cached that it was served from the per-cell cache.
	Warm   bool `json:"warm"`
	Cached bool `json:"cached"`
}

// SimulateRequest runs a Monte-Carlo campaign; zero-valued fields take
// the same defaults as amdahl-sim's flags (500 runs × 500 patterns,
// T/P defaulting as in EvaluateRequest).
type SimulateRequest struct {
	Model    ModelSpec `json:"model"`
	T        float64   `json:"t,omitempty"`
	P        float64   `json:"p,omitempty"`
	Runs     int       `json:"runs,omitempty"`
	Patterns int       `json:"patterns,omitempty"`
	Seed     uint64    `json:"seed,omitempty"`
	Machine  bool      `json:"machine,omitempty"`
	// Dist names a non-exponential per-processor law (weibull, lognormal,
	// gamma) with Shape as its parameter; requires Machine, exactly like
	// the amdahl-trace/amdahl-exp -dist flags.
	Dist  string  `json:"dist,omitempty"`
	Shape float64 `json:"shape,omitempty"`
}

// SimulateResponse mirrors sim.RunResult.
type SimulateResponse struct {
	T                float64     `json:"t"`
	P                float64     `json:"p"`
	Overhead         SummaryJSON `json:"overhead"`
	MeanPatternTime  SummaryJSON `json:"mean_pattern_time"`
	PredictedH       float64     `json:"predicted_overhead"`
	ExactPatternTime float64     `json:"exact_pattern_time"`
	FailStops        int64       `json:"fail_stops"`
	SilentDetections int64       `json:"silent_detections"`
	Recoveries       int64       `json:"recoveries"`
	Runs             int         `json:"runs"`
	Patterns         int         `json:"patterns"`
	Cached           bool        `json:"cached"`
}

// SummaryJSON is the JSON shape of stats.Summary. NaN spread fields
// (single-run campaigns) marshal as null, which is JSON's honest "-".
type SummaryJSON struct {
	N      int64    `json:"n"`
	Mean   float64  `json:"mean"`
	StdDev *float64 `json:"stddev"`
	StdErr *float64 `json:"stderr"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	CI95   *float64 `json:"ci95"`
}

// summaryJSON converts a stats.Summary, mapping NaN spread fields (which
// encoding/json refuses to marshal) to null.
func summaryJSON(s stats.Summary) SummaryJSON {
	ptr := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return SummaryJSON{
		N:      s.N,
		Mean:   s.Mean,
		StdDev: ptr(s.StdDev),
		StdErr: ptr(s.StdErr),
		Min:    s.Min,
		Max:    s.Max,
		CI95:   ptr(s.CI95),
	}
}

// Server exposes the engine over HTTP with JSON request/response bodies.
type Server struct {
	engine *Engine
	mux    *http.ServeMux

	// draining flips once StartDrain is called: /readyz starts answering
	// 503 immediately (routers stop sending new work), while in-flight
	// requests keep running until the drain grace expires.
	draining atomic.Bool
	// drainCtx is cancelled when the drain grace expires; long-lived
	// streams (sweeps) watch it so they terminate cleanly — whole rows
	// plus a trailing error line — instead of being cut mid-row by the
	// http.Server teardown.
	drainCtx    context.Context
	drainCancel context.CancelFunc
}

// NewServer wires the endpoints onto a fresh mux.
func NewServer(e *Engine) *Server {
	s := &Server{engine: e, mux: http.NewServeMux()}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/evaluate", unary(s.evaluate))
	s.mux.HandleFunc("POST /v1/optimize", unary(s.optimize))
	s.mux.HandleFunc("POST /v1/simulate", unary(s.simulate))
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/multilevel/optimize", unary(s.multilevelOptimize))
	s.mux.HandleFunc("POST /v1/multilevel/simulate", unary(s.multilevelSimulate))
	s.mux.HandleFunc("POST /v1/hetero/optimize", unary(s.heteroOptimize))
	s.mux.HandleFunc("POST /v1/hetero/simulate", unary(s.heteroSimulate))
	s.mux.HandleFunc("GET /v1/cache/hot", s.handleCacheHot)
	s.mux.HandleFunc("POST /v1/cache/fill", s.handleCacheFill)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// StartDrain begins a graceful drain: /readyz flips to 503 at once (so a
// fleet router or health checker stops routing here before requests
// start failing), and after grace the drain context is cancelled, which
// cleanly terminates in-flight sweep streams at the next row boundary.
// Call it before http.Server.Shutdown with a grace inside the shutdown
// timeout; calling it again is a no-op.
func (s *Server) StartDrain(grace time.Duration) {
	if s.draining.Swap(true) {
		return
	}
	if grace <= 0 {
		s.drainCancel()
		return
	}
	time.AfterFunc(grace, s.drainCancel)
}

// Engine returns the underlying engine (for stats and tests).
func (s *Server) Engine() *Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: once WriteHeader runs,
	// an encode failure could only produce a 200 with a truncated body.
	// The realistic failure is a non-finite float (e.g. an overhead of
	// +Inf deep in the failure-dominated regime), which encoding/json
	// refuses to marshal; report it as an unprocessable result rather
	// than silently emitting garbage.
	buf, err := json.Marshal(v)
	if err != nil {
		status = http.StatusUnprocessableEntity
		buf, _ = json.Marshal(apiError{Error: fmt.Sprintf(
			"result not representable in JSON (non-finite values — the pattern is likely infeasible at these parameters): %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf = append(buf, '\n')
	_, _ = w.Write(buf) // a client gone mid-write has its own error
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		// Saturation is transient by construction (the queue drains at
		// MaxConcurrent jobs at a time); tell well-behaved clients when to
		// come back instead of leaving them to guess a backoff.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// overCap is a well-formed request past a per-request cap: more work
// than one request may claim (HTTP 422).
type overCap string

func (e overCap) Error() string { return string(e) }

// statusFor maps every error a request meets onto its HTTP status:
// cancelled requests map to 499 (client closed request, nginx convention
// — the client is gone anyway), a saturated scheduler to 503 (retry
// later — the request was fine, the server is full), a per-request cap
// and patterns too failure-dominated to simulate to 422, and everything
// else to 400: every remaining error is parameter-driven (bad model,
// search box, campaign config) — internal invariant violations would
// surface as panics, not errors.
func statusFor(ctx context.Context, err error) int {
	var capErr overCap
	switch {
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		return 499
	case errors.Is(err, ErrSaturated):
		return http.StatusServiceUnavailable
	case errors.As(err, &capErr), errors.Is(err, sim.ErrErrorPressure):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) error {
	// MaxBytesReader (not a bare LimitReader) so an oversized body yields
	// a clear "request body too large" error and the connection is
	// protected instead of left mid-body.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeOne decodes exactly one JSON value: whitespace may follow it,
// anything else is an error. (dec.More is not enough: it reports false
// before a stray '}' or ']'.)
func decodeOne(dec *json.Decoder, into any) error {
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// unary is the request pipeline of every JSON-in, JSON-out endpoint:
// decode the body into a Req (400 when it does not decode), serve it,
// and encode the answer — or the error, at the status statusFor maps
// it to.
func unary[Req any](serve func(context.Context, *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decode(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp, err := serve(r.Context(), &req)
		if err != nil {
			writeErr(w, statusFor(r.Context(), err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// checkBudget holds a campaign of runs × patterns (zero taking the 500
// default) to the per-request pattern cap. groups counts the pattern
// streams of a heterogeneous campaign, which plays one per group; it is
// 0 for the homogeneous protocols, whose message has no group factor.
func checkBudget(runs, patterns, groups int) error {
	if runs < 0 || patterns < 0 {
		return errors.New("runs and patterns must be non-negative")
	}
	eff := sim.RunConfig{Runs: runs, Patterns: patterns}.WithDefaults()
	if float64(eff.Runs)*float64(eff.Patterns)*float64(max(groups, 1)) <= maxRequestPatternBudget {
		return nil
	}
	budget := fmt.Sprintf("%d×%d", eff.Runs, eff.Patterns)
	if groups > 0 {
		budget = fmt.Sprintf("%d×%s", groups, budget)
	}
	return overCap(fmt.Sprintf("campaign budget %s exceeds the per-request limit of %g patterns",
		budget, float64(maxRequestPatternBudget)))
}

// defaultTP resolves the T = 0 / P = 0 conventions shared by evaluate and
// simulate: P defaults to the platform's deployed count, T to the
// Theorem 1 optimum at P — the same lines amdahl-sim runs.
func defaultTP(m core.Model, pl platform.Platform, t, p float64) (float64, float64) {
	if p == 0 {
		p = pl.Processors
	}
	if t == 0 {
		t = m.OptimalPeriodFixedP(p)
	}
	return t, p
}

func (s *Server) evaluate(_ context.Context, req *EvaluateRequest) (any, error) {
	m, pl, err := req.Model.Build()
	if err != nil {
		return nil, err
	}
	t, p := defaultTP(m, pl, req.T, req.P)
	ev, err := s.engine.Evaluate(m, t, p)
	if err != nil {
		return nil, err
	}
	return EvaluateResponse{Evaluation: ev, Platform: pl.Name}, nil
}

func (s *Server) optimize(ctx context.Context, req *OptimizeRequest) (any, error) {
	m, _, err := req.Model.Build()
	if err != nil {
		return nil, err
	}
	res, cached, err := s.engine.Optimize(ctx, m, req.Options.pattern())
	if err != nil {
		return nil, err
	}
	return OptimizeResponse{
		T:        res.T,
		P:        res.P,
		Overhead: res.Overhead,
		Method:   res.Method,
		Class:    res.Class.String(),
		AtPBound: res.AtPBound,
		Evals:    res.Evals,
		Cached:   cached,
	}, nil
}

func (s *Server) simulate(ctx context.Context, req *SimulateRequest) (any, error) {
	m, pl, err := req.Model.Build()
	if err != nil {
		return nil, err
	}
	t, p := defaultTP(m, pl, req.T, req.P)
	if err := checkBudget(req.Runs, req.Patterns, 0); err != nil {
		return nil, err
	}
	if req.Machine && p > sim.MaxMachineProcs {
		return nil, overCap(fmt.Sprintf(
			"machine-level P = %g exceeds the per-request limit of %d processors", p, sim.MaxMachineProcs))
	}
	cfg := sim.RunConfig{
		Runs:     req.Runs,
		Patterns: req.Patterns,
		Seed:     req.Seed,
		Machine:  req.Machine,
	}
	if failures.IsExponentialName(req.Dist) {
		// Parity with the CLI (amdahl-exp robustness): a shape with the
		// exponential law would silently misstate the campaign that ran.
		if req.Shape != 0 {
			return nil, errors.New("shape has no effect with an exponential dist")
		}
	} else if cfg.Dist, err = failures.ParseDistribution(req.Dist, req.Shape, m.LambdaInd); err != nil {
		return nil, err
	}
	res, cached, err := s.engine.Simulate(ctx, m, t, p, cfg)
	if err != nil {
		return nil, err
	}
	return SimulateResponse{
		T:                t,
		P:                p,
		Overhead:         summaryJSON(res.Overhead),
		MeanPatternTime:  summaryJSON(res.MeanPatternTime),
		PredictedH:       m.Overhead(t, p),
		ExactPatternTime: m.ExactPatternTime(t, p),
		FailStops:        res.FailStops,
		SilentDetections: res.SilentDetections,
		Recoveries:       res.Recoveries,
		Runs:             res.Config.Runs,
		Patterns:         res.Config.Patterns,
		Cached:           cached,
	}, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Values) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("sweep needs at least one axis value"))
		return
	}
	if len(req.Values) > maxRequestSweepCells {
		writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf(
			"sweep of %d cells exceeds the per-request limit of %d", len(req.Values), maxRequestSweepCells))
		return
	}
	if req.Hetero != nil && req.Multilevel != nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("multilevel and hetero select different protocols; pick one"))
		return
	}
	for i, x := range req.Values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("axis value %d is not finite", i))
			return
		}
	}
	var models []core.Model
	var heteroModels []core.HeteroModel
	var tp platform.Topology
	if req.Hetero != nil {
		// The heterogeneous axis sweeps the topology's coupling term: each
		// cell recompiles the topology at the axis value of κ.
		if req.Axis != "comm" {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("unknown hetero sweep axis %q (want comm)", req.Axis))
			return
		}
		heteroModels = make([]core.HeteroModel, len(req.Values))
		for i, x := range req.Values {
			hm, _, err := req.Hetero.Topology.withComm(x).Build()
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("comm=%g: %w", x, err))
				return
			}
			heteroModels[i] = hm
		}
		var err error
		if _, tp, err = req.Hetero.Topology.Build(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		models = make([]core.Model, len(req.Values))
		for i, x := range req.Values {
			spec, err := req.Model.withAxis(req.Axis, x)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			m, _, err := spec.Build()
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("%s=%g: %w", req.Axis, x, err))
				return
			}
			models[i] = m
		}
	}
	// The two-level axis: the segment length is closed-form at every
	// (K, P), so period search bounds have no meaning here — reject them
	// loudly instead of silently ignoring half the options.
	if req.Multilevel != nil && (req.Options.TMin != 0 || req.Options.TMax != 0) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("t_min/t_max have no effect on a multilevel sweep (the segment length is closed-form)"))
		return
	}
	// Streams also answer to the drain lifecycle: once the server's drain
	// grace expires the chain is cancelled at the next row boundary, and
	// the client sees whole rows plus a trailing "draining" error line —
	// never a row cut in half by process teardown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.drainCtx, cancel)
	defer stopAfter()
	// True streaming: each NDJSON row is written (and flushed) the moment
	// its cell is solved, so the first row of a long axis reaches the
	// client while the chain is still running, and a mid-stream hang-up
	// stops the chain instead of solving the rest for nobody. Rows are
	// marshalled individually so one unrepresentable value (a non-finite
	// overhead) degrades that row to an error line instead of truncating
	// the stream silently.
	flusher, _ := w.(http.Flusher)
	wrote := false
	writeRow := func(i int, row SweepRow) error {
		buf, err := json.Marshal(row)
		if err != nil {
			buf, _ = json.Marshal(apiError{Error: fmt.Sprintf("cell %d not representable in JSON: %v", i, err)})
		}
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return errClientGone
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	e := s.engine
	var keys []string
	var err error
	switch {
	case req.Hetero != nil:
		e.hgSweepCalls.Add(1)
		opts := HeteroOptions{OptimizeOptions: req.Options, MaxGroups: req.Hetero.MaxGroups}.pattern()
		solver := hetero.NewSweepSolver(hetero.SweepOptions{PatternOptions: opts, Cold: req.Cold})
		if keys, err = sweepKeys(heteroModels, "", req.Cold, hgOptionsKey(opts)); err != nil {
			break
		}
		err = sweepStream(ctx, e, e.hgOptimizes, keys,
			func(i int, res hetero.PatternResult) { solver.Observe(heteroModels[i], res) },
			func(i int) (hetero.PatternResult, error) { return solver.Solve(heteroModels[i]) },
			func(i int, res hetero.PatternResult, cached bool) error {
				return writeRow(i, SweepRow{
					X:        req.Values[i],
					Overhead: res.Overhead,
					Method:   "hetero",
					Evals:    res.Evals,
					G:        res.Active,
					Groups:   groupPlansJSON(tp, res.Groups),
					Warm:     res.Warm,
					Cached:   cached,
				})
			})
	case req.Multilevel != nil:
		e.mlSweepCalls.Add(1)
		frac := inMemFraction(req.Multilevel.InMemFraction)
		opts := multilevel.PatternOptions{PMin: req.Options.PMin, PMax: req.Options.PMax, IntegerP: req.Options.IntegerP}
		solver := multilevel.NewSweepSolver(multilevel.SweepOptions{PatternOptions: opts, Cold: req.Cold})
		if err = validateFraction(frac); err != nil {
			break
		}
		if keys, err = sweepKeys(models, mlKeyVersion, req.Cold, mlOptionsKey(frac, opts)); err != nil {
			break
		}
		err = sweepStream(ctx, e, e.mlOptimizes, keys,
			func(_ int, res multilevel.PatternResult) { solver.Observe(res) },
			func(i int) (multilevel.PatternResult, error) {
				return solver.Solve(models[i], multilevel.InMemoryFraction(models[i], frac))
			},
			func(i int, res multilevel.PatternResult, cached bool) error {
				return writeRow(i, SweepRow{
					X:        req.Values[i],
					T:        res.T,
					K:        res.K,
					P:        res.P,
					Overhead: res.PredictedH,
					Method:   "multilevel",
					AtPBound: res.AtPBound,
					Evals:    res.Evals,
					Warm:     res.Warm,
					Cached:   cached,
				})
			})
	default:
		err = e.SweepStream(ctx, models, req.Options.pattern(), req.Cold, func(i int, c SweepCell) error {
			return writeRow(i, SweepRow{
				X:        req.Values[i],
				T:        c.Result.T,
				P:        c.Result.P,
				Overhead: c.Result.Overhead,
				Method:   c.Result.Method,
				Class:    c.Result.Class.String(),
				AtPBound: c.Result.AtPBound,
				Evals:    c.Result.Evals,
				Warm:     c.Result.Warm,
				Cached:   c.Cached,
			})
		})
	}
	if err != nil {
		if errors.Is(err, errClientGone) {
			return // nobody left to tell
		}
		// A drain-expiry cancellation is the server's doing, not the
		// client's: report it as such (503 before any rows, a clean
		// trailing error line after) so the client can retry elsewhere.
		if errors.Is(err, context.Canceled) && s.drainCtx.Err() != nil && r.Context().Err() == nil {
			err = errDraining
		}
		if !wrote {
			status := statusFor(r.Context(), err)
			if errors.Is(err, errDraining) {
				w.Header().Set("Retry-After", "1")
				status = http.StatusServiceUnavailable
			}
			writeErr(w, status, err)
			return
		}
		// Rows already went out, so the status line is spent; degrade to a
		// trailing error line so the client sees why the stream is short.
		buf, _ := json.Marshal(apiError{Error: err.Error()})
		_, _ = w.Write(append(buf, '\n'))
	}
}

// errDraining marks a stream terminated by the server's own drain
// deadline rather than by the client.
var errDraining = errors.New("service: server draining, stream terminated early")

// errClientGone marks a response write that failed because the client
// hung up mid-stream: the sweep chain stops, and there is no one left to
// send an error to.
var errClientGone = errors.New("service: client hung up mid-stream")

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// ReadyResponse is the /readyz body: readiness plus the reason when not.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleReady is readiness as distinct from liveness: 503 while the
// scheduler is saturated or the server is draining, so a router or
// health checker stops routing to this replica *before* requests start
// coming back 503 — /healthz keeps reporting liveness regardless.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "draining"})
	case !s.engine.Ready():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "scheduler saturated"})
	default:
		writeJSON(w, http.StatusOK, ReadyResponse{Ready: true})
	}
}
