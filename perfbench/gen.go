package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/rng"
	"amdahlyd/internal/service"
	"amdahlyd/internal/xmath"
)

// class is a request class: one endpoint family of the service.
type class uint8

const (
	clsEvaluate class = iota
	clsOptimize
	clsSweep
	clsMultilevel
	clsHetero
	clsSimulate
	numClasses
)

var classNames = [numClasses]string{"evaluate", "optimize", "sweep", "multilevel", "hetero", "simulate"}

var classPaths = [numClasses]string{
	"/v1/evaluate", "/v1/optimize", "/v1/sweep",
	"/v1/multilevel/optimize", "/v1/hetero/optimize", "/v1/simulate",
}

// The request-class mixes. No recorded traffic of this service exists,
// so the mixes are an assumed traffic shape, not a measured one: equal
// shares over the classes each workload is meant to load, no class
// weighted above another. serve-warm takes the five unary classes;
// serve-cold takes the four solver classes and λ sweeps, which run the
// SweepSolver's warm-start chains, and leaves out evaluate, which solves
// nothing. Each block of len(classes) consecutive requests holds every
// class once (only the order is shuffled), so a seed changes
// parameters, not the amount of work.
var (
	warmClasses = []class{clsEvaluate, clsOptimize, clsMultilevel, clsHetero, clsSimulate}
	coldClasses = []class{clsOptimize, clsSweep, clsMultilevel, clsHetero, clsSimulate}
)

const (
	// warmPerClass is the number of distinct serve-warm bodies per class:
	// a few hundred bodies in all, split equally.
	warmPerClass = 50
	// zipfS is the serve-warm popularity exponent within a class: plain
	// Zipf's law, since no measured popularity exists to fit one to.
	zipfS = 1.0
	// sweepCells is the number of λ values of a sweep request.
	sweepCells = 16
)

// The parameter ranges are the axes of the paper's figures and of the
// repository's studies (internal/experiments), so every request asks
// about a point those studies price: α over Fig. 4's non-zero values,
// λ over Figs. 5–6, D over Fig. 7, the in-memory fraction over the
// multilevel study's axis, and the comm coefficient and accelerator
// split over the hetero study's non-zero axes. Platforms and scenarios
// are drawn with equal shares. A simulate request uses the campaign
// section's Monte-Carlo budget, the one budget this benchmark uses.
const (
	alphaLo, alphaHi   = 1e-4, 1e-1
	lambdaLo, lambdaHi = 1e-12, 1e-8
	downtimeHi         = 10800.0
	fracLo, fracHi     = 1.0 / 60, 1
	commLo, commHi     = 1e-6, 1e-4
	splitLo, splitHi   = 1.0 / 16, 1
)

// body is one generated request.
type body struct {
	cls  class
	data []byte
	// rows is the number of NDJSON rows a sweep must stream (0 = unary).
	rows int
}

// gen draws request parameters. The ranges stay inside the region where
// every request succeeds (no 4xx/422 answers), so a failure in a run is
// always a defect, never an input artefact.
type gen struct{ r *rng.Rand }

func (g gen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

func (g gen) logUniform(lo, hi float64) float64 {
	return math.Exp(g.uniform(math.Log(lo), math.Log(hi)))
}

var platformNames = []string{"hera", "atlas", "coastal", "coastalssd"}

func (g gen) model(withLambda bool) service.ModelSpec {
	alpha := g.logUniform(alphaLo, alphaHi)
	downtime := g.uniform(0, downtimeHi)
	spec := service.ModelSpec{
		Platform: platformNames[g.r.Intn(len(platformNames))],
		Scenario: 1 + g.r.Intn(6),
		Alpha:    &alpha,
		Downtime: &downtime,
	}
	if withLambda {
		spec.Lambda = g.logUniform(lambdaLo, lambdaHi)
	}
	return spec
}

func (g gen) body(c class) body {
	b := body{cls: c}
	var req any
	switch c {
	case clsEvaluate:
		// T and P left out: the handler evaluates the platform's
		// deployed size at its optimal period.
		req = service.EvaluateRequest{Model: g.model(true)}
	case clsOptimize:
		req = service.OptimizeRequest{Model: g.model(true)}
	case clsSweep:
		values := xmath.Logspace(lambdaLo, lambdaHi, sweepCells)
		req = service.SweepRequest{Model: g.model(false), Axis: "lambda", Values: values}
		b.rows = sweepCells
	case clsMultilevel:
		frac := g.uniform(fracLo, fracHi)
		req = service.MultilevelOptimizeRequest{Model: g.model(true), InMemFraction: &frac}
	case clsHetero:
		pl, err := platform.Lookup(platformNames[g.r.Intn(len(platformNames))])
		if err != nil {
			panic(err) // platformNames lists built-ins only
		}
		comm := g.logUniform(commLo, commHi)
		tp := experiments.HeteroStudyTopology(pl, comm, g.uniform(splitLo, splitHi))
		alpha := g.logUniform(alphaLo, alphaHi)
		downtime := g.uniform(0, downtimeHi)
		req = service.HeteroOptimizeRequest{Topology: service.TopologySpec{
			Name: tp.Name, Comm: comm, Groups: tp.Groups,
			Scenario: 1 + g.r.Intn(6), Alpha: &alpha, Downtime: &downtime,
		}}
	case clsSimulate:
		req = service.SimulateRequest{Model: g.model(true), Runs: campaignRuns, Patterns: campaignPatterns,
			Seed: g.r.Uint64() >> 1}
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("marshalling a generated %s request: %v", classNames[c], err))
	}
	b.data = data
	return b
}

// schedule returns n request classes: whole blocks holding each of
// classes once, each block shuffled.
func (g gen) schedule(classes []class, n int) []class {
	block := slices.Clone(classes)
	out := make([]class, 0, n+len(block))
	for len(out) < n {
		for i := len(block) - 1; i > 0; i-- {
			j := g.r.Intn(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		out = append(out, block...)
	}
	return out[:n]
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rng.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// warmSet is the serve-warm input: a fixed set of distinct bodies and,
// per caller, the sequence of body indices it sends.
type warmSet struct {
	bodies  []body
	streams [][]int32
}

// newWarmSet draws the distinct bodies, then each caller's stream: the
// class from the fixed mix, the body within the class by Zipf popularity
// over a seeded ranking.
func newWarmSet(seed uint64, callers, perCaller int) warmSet {
	root := rng.New(seed).SplitString("serve-warm")
	g := gen{root.SplitString("bodies")}
	var ws warmSet
	var byClass [numClasses][]int32
	for _, c := range warmClasses {
		for i := 0; i < warmPerClass; i++ {
			byClass[c] = append(byClass[c], int32(len(ws.bodies)))
			ws.bodies = append(ws.bodies, g.body(c))
		}
		// Popularity ranking: a seeded permutation of the class's bodies.
		ids := byClass[c]
		for i := len(ids) - 1; i > 0; i-- {
			j := g.r.Intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	var zipfs [numClasses]zipf
	for c := range zipfs {
		if len(byClass[c]) > 0 {
			zipfs[c] = newZipf(len(byClass[c]), zipfS)
		}
	}
	for k := 0; k < callers; k++ {
		cg := gen{root.Split(uint64(k))}
		sched := cg.schedule(warmClasses, perCaller)
		stream := make([]int32, perCaller)
		for i, c := range sched {
			stream[i] = byClass[c][zipfs[c].draw(cg.r)]
		}
		ws.streams = append(ws.streams, stream)
	}
	return ws
}

// newColdStreams draws each caller's serve-cold bodies: every request
// has freshly drawn parameters, so keys essentially never repeat.
func newColdStreams(seed uint64, callers, perCaller int) [][]body {
	root := rng.New(seed).SplitString("serve-cold")
	out := make([][]body, callers)
	for k := range out {
		g := gen{root.Split(uint64(k))}
		for _, c := range g.schedule(coldClasses, perCaller) {
			out[k] = append(out[k], g.body(c))
		}
	}
	return out
}

// coldWarmup draws a few bodies per cold-mix class from a stream no
// caller uses: they pay lazy initialisation and open connections before
// timing without touching any timed key.
func coldWarmup(seed uint64, perClass int) []body {
	g := gen{rng.New(seed).SplitString("serve-cold/warm-up")}
	var out []body
	for _, c := range coldClasses {
		for i := 0; i < perClass; i++ {
			out = append(out, g.body(c))
		}
	}
	return out
}
