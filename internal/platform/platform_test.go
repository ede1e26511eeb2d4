package platform

import (
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/xmath"
)

func TestTable2Values(t *testing.T) {
	// Spot-check the hard-coded registry against Table II of the paper.
	h := Hera()
	if h.LambdaInd != 1.69e-8 || h.FailStopFraction != 0.2188 ||
		h.Processors != 512 || h.CheckpointCost != 300 || h.VerificationCost != 15.4 {
		t.Errorf("Hera parameters corrupted: %+v", h)
	}
	a := Atlas()
	if a.LambdaInd != 1.62e-8 || a.SilentFraction != 0.9375 || a.CheckpointCost != 439 {
		t.Errorf("Atlas parameters corrupted: %+v", a)
	}
	c := Coastal()
	if c.LambdaInd != 2.34e-9 || c.Processors != 2048 || c.VerificationCost != 4.5 {
		t.Errorf("Coastal parameters corrupted: %+v", c)
	}
	ssd := CoastalSSD()
	if ssd.CheckpointCost != 2500 || ssd.VerificationCost != 180 {
		t.Errorf("CoastalSSD parameters corrupted: %+v", ssd)
	}
}

func TestAllPlatformsValid(t *testing.T) {
	pls := All()
	if len(pls) != 4 {
		t.Fatalf("expected 4 platforms, got %d", len(pls))
	}
	for _, pl := range pls {
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", pl.Name, err)
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	pls := All()
	pls[0].LambdaInd = 42
	if Hera().LambdaInd == 42 {
		t.Error("All exposed internal registry storage")
	}
}

func TestResilienceCalibration(t *testing.T) {
	h := Hera()
	for _, s := range costmodel.AllScenarios {
		r, err := h.Resilience(s, 3600)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got := r.Checkpoint.At(h.Processors); !xmath.EqualWithin(got, 300, 1e-9, 0) {
			t.Errorf("%v: C_P(512) = %g", s, got)
		}
		if r.Downtime != 3600 {
			t.Errorf("%v: downtime = %g", s, r.Downtime)
		}
	}
}

func TestWithLambda(t *testing.T) {
	h := Hera().WithLambda(1e-10)
	if h.LambdaInd != 1e-10 {
		t.Error("WithLambda did not set rate")
	}
	if h.Name != "Hera" || h.CheckpointCost != 300 {
		t.Error("WithLambda disturbed other fields")
	}
	if Hera().LambdaInd != 1.69e-8 {
		t.Error("WithLambda mutated the registry")
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"hera", "HERA", "Hera"} {
		if pl, err := Lookup(name); err != nil || pl.Name != "Hera" {
			t.Errorf("Lookup(%q) = %v, %v", name, pl.Name, err)
		}
	}
	for _, name := range []string{"coastalssd", "coastal-ssd", "Coastal SSD", "coastal_ssd"} {
		if pl, err := Lookup(name); err != nil || pl.Name != "CoastalSSD" {
			t.Errorf("Lookup(%q) = %v, %v", name, pl.Name, err)
		}
	}
	if _, err := Lookup("summit"); err == nil {
		t.Error("unknown platform accepted")
	} else if !strings.Contains(err.Error(), "Hera") {
		t.Error("error should list built-ins")
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	good := Hera()
	cases := []func(*Platform){
		func(p *Platform) { p.Name = "" },
		func(p *Platform) { p.LambdaInd = 0 },
		func(p *Platform) { p.LambdaInd = math.Inf(1) },
		func(p *Platform) { p.FailStopFraction = -0.1 },
		func(p *Platform) { p.SilentFraction = 1.5 },
		func(p *Platform) { p.FailStopFraction = 0.5; p.SilentFraction = 0.2 },
		func(p *Platform) { p.Processors = 0 },
		func(p *Platform) { p.CheckpointCost = 0 },
		func(p *Platform) { p.VerificationCost = -1 },
	}
	for i, mutate := range cases {
		pl := good
		mutate(&pl)
		if err := pl.Validate(); err == nil {
			t.Errorf("case %d: invalid platform accepted: %+v", i, pl)
		}
	}
}
