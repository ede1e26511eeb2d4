package platform

import (
	"math"
	"testing"
)

// TestValidateRejectsNonFinite is the table-driven NaN/±Inf audit of
// Platform.Validate: every numeric field must reject NaN and both
// infinities (a NaN slips through naive range checks because every
// comparison against it is false).
func TestValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	posInf := math.Inf(1)
	negInf := math.Inf(-1)
	fields := []struct {
		name string
		set  func(*Platform, float64)
	}{
		{"LambdaInd", func(p *Platform, v float64) { p.LambdaInd = v }},
		{"FailStopFraction", func(p *Platform, v float64) { p.FailStopFraction = v }},
		{"SilentFraction", func(p *Platform, v float64) { p.SilentFraction = v }},
		{"Processors", func(p *Platform, v float64) { p.Processors = v }},
		{"CheckpointCost", func(p *Platform, v float64) { p.CheckpointCost = v }},
		{"VerificationCost", func(p *Platform, v float64) { p.VerificationCost = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{nan, posInf, negInf} {
			pl := Hera()
			f.set(&pl, v)
			if err := pl.Validate(); err == nil {
				t.Errorf("Platform with %s = %g accepted", f.name, v)
			}
		}
	}
}

func TestGroupValidateRejectsNonFinite(t *testing.T) {
	good := Group{Name: "g", LambdaInd: 1e-8, FailStopFraction: 0.25, SilentFraction: 0.75,
		Size: 64, Speed: 2, CheckpointCost: 100, VerificationCost: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid group rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		g := good
		g.Speed = v
		if err := g.Validate(); err == nil {
			t.Errorf("group with speed = %g accepted", v)
		}
	}
	// Platform-row fields route through the same audited Validate.
	g := good
	g.LambdaInd = math.NaN()
	if err := g.Validate(); err == nil {
		t.Error("group with NaN λ_ind accepted")
	}
}

func TestTopologyValidate(t *testing.T) {
	good := SingleGroup(Hera())
	if err := good.Validate(); err != nil {
		t.Fatalf("degenerate topology rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Topology)
	}{
		{"empty name", func(tp *Topology) { tp.Name = "" }},
		{"no groups", func(tp *Topology) { tp.Groups = nil }},
		{"negative comm", func(tp *Topology) { tp.Comm = -1e-6 }},
		{"NaN comm", func(tp *Topology) { tp.Comm = math.NaN() }},
		{"infinite comm", func(tp *Topology) { tp.Comm = math.Inf(1) }},
		{"duplicate group names", func(tp *Topology) {
			tp.Groups = append(tp.Groups, tp.Groups[0])
		}},
		{"invalid group", func(tp *Topology) { tp.Groups[0].CheckpointCost = 0 }},
	}
	for _, tc := range cases {
		tp := SingleGroup(Hera())
		tc.mutate(&tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("%s: invalid topology accepted", tc.name)
		}
	}
}

func TestSingleGroupView(t *testing.T) {
	h := Hera()
	tp := SingleGroup(h)
	if tp.Comm != 0 || len(tp.Groups) != 1 || tp.Groups[0].Speed != 1 {
		t.Fatalf("SingleGroup shape wrong: %+v", tp)
	}
	// The Platform round trip through Group must be lossless.
	if got := tp.Groups[0].Platform(); got != h {
		t.Errorf("Group.Platform() round trip changed the row:\n got %+v\nwant %+v", got, h)
	}
}
