package service

import (
	"context"
	"math"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/failures"
	"amdahlyd/internal/hetero"
	"amdahlyd/internal/multilevel"
	"amdahlyd/internal/optimize"
	"amdahlyd/internal/sim"
	"amdahlyd/internal/speedup"
)

// keyedProfile keys itself through core.CacheKeyer.
type keyedProfile struct{ speedup.PerfectlyParallel }

func (keyedProfile) CacheKey() string { return "pp-keyed-v1" }

// namedProfile has only its display name to be keyed by.
type namedProfile struct{ speedup.PerfectlyParallel }

func (namedProfile) Name() string { return "named-profile" }

// keyBytesModel is Hera at scenario 1 with the given profile.
func keyBytesModel(t *testing.T, prof speedup.Profile) core.Model {
	t.Helper()
	m, _, err := ModelSpec{Platform: "hera", Scenario: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Profile = prof
	return m
}

// TestCacheKeyBytes pins the exact bytes of every cache-key family.
// Replicas warm-fill each other by key, campaign plans key their cells
// with core.Model.CacheKey, and a rolling deploy keeps hitting its
// caches only while the bytes stay put, so a rewrite of the key builders
// must reproduce these literals. The service keys are read back from
// the engine's caches after one request each: they are the keys a
// request really stores under.
func TestCacheKeyBytes(t *testing.T) {
	// Hera's twelve platform and resilience parameters at scenario 1.
	const hera = "m1|0x1.2256fc6cf6c4p-26|0x1.c01a36e2eb1c4p-03|0x1.8ff972474538fp-01|" +
		"0x0p+00|0x0p+00|0x1.2cp-01|0x0p+00|0x0p+00|0x1.2cp-01|0x1.ecccccccccccdp+03|0x0p+00|0x1.c2p+11|"
	const heraAmdahl = hera + "amdahl:0x1.999999999999ap-04"

	negZero := math.Copysign(0, -1)
	odd := keyBytesModel(t, speedup.Amdahl{Alpha: negZero})
	odd.LambdaInd = math.SmallestNonzeroFloat64
	odd.FailStopFrac = negZero
	odd.Res.Checkpoint.A = math.MaxFloat64
	odd.Res.Recovery.B = 0x1p-1040 // subnormal
	odd.Res.Downtime = math.Inf(1)

	hm, _, err := testTopologySpec(0.02).Build()
	if err != nil {
		t.Fatal(err)
	}
	const heteroKey = "hg1|0x1.47ae147ae147bp-06[0x1p+09@" + heraAmdahl + "][0x1p+07@" +
		"m1|0x1.c5a7ea6a41924p-21|0x1.c01a36e2eb1c4p-03|0x1.8ff972474538fp-01|0x0p+00|0x0p+00|0x1.ep-02|" +
		"0x0p+00|0x0p+00|0x1.ep-02|0x1.ecccccccccccdp+01|0x0p+00|0x1.c2p+11|" +
		"amdahlcomm:0x1.999999999999ap-04,0x1p+03,0x0p+00]"

	for _, c := range []struct {
		name string
		key  func() (string, error)
		want string
	}{
		{"amdahl", keyBytesModel(t, speedup.Amdahl{Alpha: 0.1}).CacheKey, heraAmdahl},
		{"perfectly-parallel", keyBytesModel(t, speedup.PerfectlyParallel{}).CacheKey, hera + "pp"},
		{"amdahl-comm", keyBytesModel(t, speedup.AmdahlComm{Alpha: 0.1, Speed: 8, Comm: 1e-6}).CacheKey,
			hera + "amdahlcomm:0x1.999999999999ap-04,0x1p+03,0x1.0c6f7a0b5ed8dp-20"},
		{"gustafson", keyBytesModel(t, speedup.Gustafson{Alpha: 0.25}).CacheKey, hera + "gustafson:0x1p-02"},
		{"power-law", keyBytesModel(t, speedup.PowerLaw{Gamma: 0.75}).CacheKey, hera + "powerlaw:0x1.8p-01"},
		{"custom", keyBytesModel(t, keyedProfile{}).CacheKey, hera + "custom:pp-keyed-v1"},
		{"named", keyBytesModel(t, namedProfile{}).CacheKey, hera + "named:named-profile"},
		{"odd-floats", odd.CacheKey,
			"m1|0x1p-1074|0x0p+00|0x1.8ff972474538fp-01|0x1.fffffffffffffp+1023|0x0p+00|0x1.2cp-01|" +
				"0x0p+00|0x1p-1040|0x1.2cp-01|0x1.ecccccccccccdp+03|0x0p+00|+Inf|amdahl:0x0p+00"},
		{"hetero", hm.CacheKey, heteroKey},
	} {
		got, err := c.key()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s model key\n got %q\nwant %q", c.name, got, c.want)
		}
	}

	ctx := context.Background()
	e := NewEngine(Options{})
	m := keyBytesModel(t, speedup.Amdahl{Alpha: 0.1})
	opts := optimize.PatternOptions{PMin: 2, PMax: 1e5, TMin: 60, TMax: 1e6, IntegerP: true}
	if _, _, err := e.Optimize(ctx, m, opts); err != nil {
		t.Fatal(err)
	}
	if err := e.SweepStream(ctx, []core.Model{m}, opts, false, func(int, SweepCell) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MultilevelOptimize(ctx, m, 0.1, multilevel.PatternOptions{PMin: 4, PMax: 1e5, IntegerP: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.HeteroOptimize(ctx, hm, hetero.PatternOptions{MaxGroups: 1}); err != nil {
		t.Fatal(err)
	}
	weibull := failures.Weibull{Shape: 0.7, Scale: 3e9}
	if _, _, err := e.Simulate(ctx, m, 6000, 64, sim.RunConfig{Runs: 2, Patterns: 3, Seed: 11, Machine: true, Dist: weibull}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MultilevelSimulate(ctx, m, 0.1, multilevel.Pattern{T: 3000, K: 3}, 64, 2, 3, 11); err != nil {
		t.Fatal(err)
	}
	plan := []hetero.GroupPlan{{Group: 1, Fraction: 0.25, T: 900, P: 64}, {Group: 0, Fraction: 0.75, T: 6000, P: 512}}
	if _, _, err := e.HeteroSimulate(ctx, hm, plan, 2, 3, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(m, 6000, 219.5); err != nil {
		t.Fatal(err)
	}
	optKeys, _ := e.optimizes.Hot(2)
	mlKeys, _ := e.mlOptimizes.Hot(1)
	hgKeys, _ := e.hgOptimizes.Hot(1)
	simKeys, _ := e.sims.Hot(1)
	mlSimKeys, _ := e.mlSims.Hot(1)
	hgSimKeys, _ := e.hgSims.Hot(1)
	frozenKeys, _ := e.frozen.Hot(1)
	const optsKey = "0x1p+01,0x1.86ap+16,0x1.ep+05,0x1.e848p+19,true"
	for _, c := range []struct {
		name string
		got  []string
		want []string
	}{
		// Hot lists most recent first: the warm sweep cell, then the optimize.
		{"opt#/swopt#", optKeys, []string{heraAmdahl + "#swopt#" + optsKey, heraAmdahl + "#opt#" + optsKey}},
		{"ml1|", mlKeys, []string{heraAmdahl + "#ml1|opt#0x1.999999999999ap-04#0x1p+02,0x1.86ap+16,true"}},
		{"hetero maxg", hgKeys, []string{heteroKey + "#opt#0x0p+00,0x0p+00,0x0p+00,0x0p+00,false,maxg=1"}},
		{"#sim#", simKeys, []string{heraAmdahl + "#sim#0x1.77p+12,0x1p+06,2,3,11,true,weibull:0x1.6666666666666p-01:0x1.65a0bcp+31"}},
		{"ml1|sim#", mlSimKeys, []string{heraAmdahl + "#ml1|sim#0x1.999999999999ap-04,0x1.77p+11,3,0x1p+06,2,3,11"}},
		{"hetero #sim#", hgSimKeys, []string{heteroKey + "#sim#1:0x1.c2p+09:0x1p+06:0x1p-02;0:0x1.77p+12:0x1p+09:0x1.8p-01;2,3,11"}},
		{"#p=", frozenKeys, []string{heraAmdahl + "#p=0x1.b7p+07"}},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d keys %q, want %d", c.name, len(c.got), c.got, len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s key %d\n got %q\nwant %q", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
