package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"amdahlyd/internal/core"
	"amdahlyd/internal/fleet"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/service"
	"amdahlyd/internal/sim"
)

// The layers inside a replica are reachable only through public
// functions, so the traced run times those functions directly on the
// run's own bodies, on a separate engine prepared the way the timed
// fleet was (so the replicas' counters stay those of the timed run).

// layerReps is how often each cheap function is timed per body; the
// per-body figure is the median.
const layerReps = 5

// bodyLayers is the time one body spends in each in-replica function.
type bodyLayers struct {
	decode, build, key, shard, engine, encode time.Duration
	// engineRun is the engine call as the timed run paid it: a cache hit
	// on serve-warm, a miss (the solve) on serve-cold.
	engineRun time.Duration
}

// attributed is the part of a replica's handler time the measured
// functions account for.
func (l bodyLayers) attributed() time.Duration {
	return l.decode + l.build + l.engineRun + l.encode
}

// solverDists are the solver and simulator timings of the timed bodies.
type solverDists struct {
	optimizeUS, optimizeEvals           dist
	sweepCellUS, sweepWarm, sweepEvals  dist
	multilevelUS, heteroUS, heteroEvals dist
	// Monte-Carlo work of the pattern-level simulator: patterns played
	// and time taken.
	simPatterns float64
	simTime     time.Duration
}

// decoded is one body resolved the way its handler resolves it.
type decoded struct {
	req    any
	models []core.Model // evaluate/optimize/simulate/multilevel: one; sweep: one per cell
	hetero core.HeteroModel
	t, p   float64 // evaluate/simulate after the handler's T/P defaulting
}

func newRequest(c class) any {
	switch c {
	case clsEvaluate:
		return &service.EvaluateRequest{}
	case clsOptimize:
		return &service.OptimizeRequest{}
	case clsSweep:
		return &service.SweepRequest{}
	case clsMultilevel:
		return &service.MultilevelOptimizeRequest{}
	case clsHetero:
		return &service.HeteroOptimizeRequest{}
	default:
		return &service.SimulateRequest{}
	}
}

// decode mirrors the service's strict request decoding.
func decode(b *body) (any, error) {
	v := newRequest(b.cls)
	dec := json.NewDecoder(bytes.NewReader(b.data))
	dec.DisallowUnknownFields()
	return v, dec.Decode(v)
}

// build resolves the decoded request's models as the handler does
// (ModelSpec.Build / TopologySpec.Build, one Build per sweep cell) and
// applies the T/P defaulting of evaluate and simulate.
func build(req any) (decoded, error) {
	d := decoded{req: req}
	one := func(spec service.ModelSpec) error {
		m, pl, err := spec.Build()
		d.models = append(d.models, m)
		d.p = pl.Processors
		return err
	}
	switch q := req.(type) {
	case *service.EvaluateRequest:
		if err := one(q.Model); err != nil {
			return d, err
		}
		d.t, d.p = defaultTP(d.models[0], d.p, q.T, q.P)
	case *service.SimulateRequest:
		if err := one(q.Model); err != nil {
			return d, err
		}
		d.t, d.p = defaultTP(d.models[0], d.p, q.T, q.P)
	case *service.OptimizeRequest:
		return d, one(q.Model)
	case *service.MultilevelOptimizeRequest:
		return d, one(q.Model)
	case *service.SweepRequest:
		for _, x := range q.Values {
			spec := q.Model
			spec.Lambda = x // every generated sweep is a λ axis
			if err := one(spec); err != nil {
				return d, err
			}
		}
	case *service.HeteroOptimizeRequest:
		hm, _, err := q.Topology.Build()
		d.hetero = hm
		return d, err
	}
	return d, nil
}

// defaultTP mirrors the handlers' T = 0 / P = 0 conventions.
func defaultTP(m core.Model, deployed, t, p float64) (float64, float64) {
	if p == 0 {
		p = deployed
	}
	if t == 0 {
		t = m.OptimalPeriodFixedP(p)
	}
	return t, p
}

func cacheKeys(d decoded) error {
	if d.models == nil {
		_, err := d.hetero.CacheKey()
		return err
	}
	for _, m := range d.models {
		if _, err := m.CacheKey(); err != nil {
			return err
		}
	}
	return nil
}

// callEngine makes the engine call the handler makes.
func callEngine(ctx context.Context, e *service.Engine, d decoded) error {
	var err error
	switch q := d.req.(type) {
	case *service.EvaluateRequest:
		_, err = e.Evaluate(d.models[0], d.t, d.p)
	case *service.OptimizeRequest:
		_, _, err = e.Optimize(ctx, d.models[0], optimize.PatternOptions{})
	case *service.SweepRequest:
		err = e.SweepStream(ctx, d.models, optimize.PatternOptions{}, q.Cold,
			func(int, service.SweepCell) error { return nil })
	case *service.MultilevelOptimizeRequest:
		_, _, err = e.MultilevelOptimize(ctx, d.models[0], *q.InMemFraction, multilevel.PatternOptions{})
	case *service.HeteroOptimizeRequest:
		_, _, err = e.HeteroOptimize(ctx, d.hetero, hetero.PatternOptions{})
	case *service.SimulateRequest:
		_, _, err = e.Simulate(ctx, d.models[0], d.t, d.p, sim.RunConfig{Runs: q.Runs, Patterns: q.Patterns, Seed: q.Seed})
	}
	return err
}

// encoder returns a function marshalling the response the handler
// marshals, rebuilt from the reply the run received.
func encoder(b *body, reply []byte) (func() error, error) {
	if b.rows > 0 {
		rows, err := sweepRows(reply)
		if err != nil {
			return nil, err
		}
		return func() error {
			for _, r := range rows {
				if _, err := json.Marshal(r); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	var v any
	switch b.cls {
	case clsEvaluate:
		v = &service.EvaluateResponse{}
	case clsOptimize:
		v = &service.OptimizeResponse{}
	case clsMultilevel:
		v = &service.MultilevelOptimizeResponse{}
	case clsHetero:
		v = &service.HeteroOptimizeResponse{}
	default:
		v = &service.SimulateResponse{}
	}
	if err := json.Unmarshal(reply, v); err != nil {
		return nil, err
	}
	return func() error { _, err := json.Marshal(v); return err }, nil
}

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	d := &dist{}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d.add(float64(time.Since(t0)))
	}
	v, _ := d.median()
	return time.Duration(v), nil
}

// timeLayers times every in-replica function on the given bodies, whose
// replies the run received. On serve-warm the engine is first warmed
// with every body, as the fleet was; on serve-cold each body meets a
// fresh engine, so its first call is the miss the run paid.
func timeLayers(bodies []*body, replies [][]byte, warm bool) ([]bodyLayers, *solverDists, error) {
	ctx := context.Background()
	eng := service.NewEngine(service.Options{})
	if warm {
		srv := service.NewServer(eng)
		for _, b := range bodies {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, classPaths[b.cls], bytes.NewReader(b.data)))
			if w.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("warming the layer engine: %s answered %d", classNames[b.cls], w.Code)
			}
		}
	}
	out := make([]bodyLayers, len(bodies))
	sd := &solverDists{}
	for i, b := range bodies {
		l := &out[i]
		var req any
		var d decoded
		var err error
		steps := []struct {
			t *time.Duration
			f func() error
		}{
			{&l.decode, func() error { req, err = decode(b); return err }},
			{&l.build, func() error { d, err = build(req); return err }},
			{&l.key, func() error { return cacheKeys(d) }},
			{&l.shard, func() error { _, err := fleet.ShardKey(classPaths[b.cls], b.data); return err }},
		}
		for _, s := range steps {
			if *s.t, err = medianOf(layerReps, s.f); err != nil {
				return nil, nil, fmt.Errorf("%s body: %w", classNames[b.cls], err)
			}
		}
		call := func() error { return callEngine(ctx, eng, d) }
		if !warm {
			if l.engineRun, err = medianOf(1, call); err != nil {
				return nil, nil, err
			}
		}
		if l.engine, err = medianOf(layerReps, call); err != nil {
			return nil, nil, err
		}
		if warm {
			l.engineRun = l.engine
		}
		enc, err := encoder(b, replies[i])
		if err != nil {
			return nil, nil, fmt.Errorf("%s reply: %w", classNames[b.cls], err)
		}
		if l.encode, err = medianOf(layerReps, enc); err != nil {
			return nil, nil, err
		}
		if err := sd.solve(ctx, d); err != nil {
			return nil, nil, fmt.Errorf("%s body: %w", classNames[b.cls], err)
		}
	}
	return out, sd, nil
}

// solve times the library solver or simulator behind the body's class.
func (sd *solverDists) solve(ctx context.Context, d decoded) error {
	t0 := time.Now()
	switch q := d.req.(type) {
	case *service.OptimizeRequest:
		res, err := optimize.OptimalPattern(d.models[0], optimize.PatternOptions{})
		if err != nil {
			return err
		}
		sd.optimizeUS.addDur(time.Since(t0))
		sd.optimizeEvals.add(float64(res.Evals))
	case *service.SweepRequest:
		s := optimize.NewSweepSolver(optimize.SweepOptions{Cold: q.Cold})
		for _, m := range d.models {
			c0 := time.Now()
			res, err := s.Solve(m)
			if err != nil {
				return err
			}
			sd.sweepCellUS.addDur(time.Since(c0))
			sd.sweepEvals.add(float64(res.Evals))
			sd.sweepWarm.add(b2f(res.Warm))
		}
	case *service.MultilevelOptimizeRequest:
		m := d.models[0]
		if _, err := multilevel.OptimalPattern(m, multilevel.InMemoryFraction(m, *q.InMemFraction), multilevel.PatternOptions{}); err != nil {
			return err
		}
		sd.multilevelUS.addDur(time.Since(t0))
	case *service.HeteroOptimizeRequest:
		res, err := hetero.OptimalPattern(d.hetero, hetero.PatternOptions{})
		if err != nil {
			return err
		}
		sd.heteroUS.addDur(time.Since(t0))
		sd.heteroEvals.add(float64(res.Evals))
	case *service.SimulateRequest:
		cfg := sim.RunConfig{Runs: q.Runs, Patterns: q.Patterns, Seed: q.Seed, Workers: 1}
		if _, err := sim.SimulateContext(ctx, d.models[0], d.t, d.p, cfg); err != nil {
			return err
		}
		sd.simTime += time.Since(t0)
		sd.simPatterns += float64(q.Runs * q.Patterns)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
