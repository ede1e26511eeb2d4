package core

import (
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/speedup"
)

func keyModel(t *testing.T) Model {
	t.Helper()
	prof, err := speedup.NewAmdahl(0.1)
	if err != nil {
		t.Fatal(err)
	}
	return Model{
		LambdaInd:    1e-9,
		FailStopFrac: 0.8,
		SilentFrac:   0.2,
		Res: costmodel.New(
			costmodel.Checkpoint{A: 120, B: 3, C: 0.001},
			costmodel.Verification{V: 20, U: 1},
			3600),
		Profile: prof,
	}
}

func mustKey(t *testing.T, m Model) string {
	t.Helper()
	k, err := m.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheKeyDeterministic(t *testing.T) {
	a, b := mustKey(t, keyModel(t)), mustKey(t, keyModel(t))
	if a != b {
		t.Errorf("identical models keyed differently:\n%s\n%s", a, b)
	}
}

// Every observable parameter must perturb the key, including a change in
// the last ulp (the hex encoding is exact, not %g-rounded).
func TestCacheKeySensitivity(t *testing.T) {
	base := mustKey(t, keyModel(t))
	perturb := []struct {
		name string
		mut  func(*Model)
	}{
		{"lambda", func(m *Model) { m.LambdaInd *= 2 }},
		{"lambda-ulp", func(m *Model) { m.LambdaInd = math.Nextafter(m.LambdaInd, 1) }},
		{"failstop", func(m *Model) { m.FailStopFrac = 0.7 }},
		{"silent", func(m *Model) { m.SilentFrac = 0.3 }},
		{"checkpoint-a", func(m *Model) { m.Res.Checkpoint.A++ }},
		{"checkpoint-b", func(m *Model) { m.Res.Checkpoint.B++ }},
		{"checkpoint-c", func(m *Model) { m.Res.Checkpoint.C *= 2 }},
		{"recovery", func(m *Model) { m.Res.Recovery.A++ }},
		{"verify-v", func(m *Model) { m.Res.Verification.V++ }},
		{"verify-u", func(m *Model) { m.Res.Verification.U++ }},
		{"downtime", func(m *Model) { m.Res.Downtime = 0 }},
		{"profile-alpha", func(m *Model) { m.Profile = speedup.Amdahl{Alpha: 0.2} }},
		{"profile-type", func(m *Model) { m.Profile = speedup.Gustafson{Alpha: 0.1} }},
		{"profile-pp", func(m *Model) { m.Profile = speedup.PerfectlyParallel{} }},
		{"profile-powerlaw", func(m *Model) { m.Profile = speedup.PowerLaw{Gamma: 0.9} }},
	}
	seen := map[string]string{base: "base"}
	for _, p := range perturb {
		m := keyModel(t)
		p.mut(&m)
		k := mustKey(t, m)
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbation %q collides with %q", p.name, prev)
		}
		seen[k] = p.name
	}
}

// Amdahl(α) and Gustafson(α) share the parameter but not the formula:
// the type must be part of the key even when Name-style formatting of
// the parameters would agree.
func TestCacheKeyProfileTypesDistinct(t *testing.T) {
	m := keyModel(t)
	m.Profile = speedup.Amdahl{Alpha: 0.25}
	a := mustKey(t, m)
	m.Profile = speedup.Gustafson{Alpha: 0.25}
	g := mustKey(t, m)
	if a == g {
		t.Error("Amdahl and Gustafson with equal α share a key")
	}
}

func TestCacheKeyRejectsNaNAndNilProfile(t *testing.T) {
	m := keyModel(t)
	m.LambdaInd = math.NaN()
	if _, err := m.CacheKey(); err == nil {
		t.Error("NaN λ_ind keyed without error")
	}
	m = keyModel(t)
	m.Profile = nil
	if _, err := m.CacheKey(); err == nil {
		t.Error("nil profile keyed without error")
	}
	m = keyModel(t)
	m.Profile = speedup.Amdahl{Alpha: math.NaN()}
	if _, err := m.CacheKey(); err == nil {
		t.Error("NaN α keyed without error")
	}
}

type customKeyedProfile struct{ speedup.PerfectlyParallel }

func (customKeyedProfile) CacheKey() string { return "my-profile-v2" }

type namedOnlyProfile struct{ speedup.PerfectlyParallel }

func (namedOnlyProfile) Name() string { return "named-only" }

func TestCacheKeyCustomProfiles(t *testing.T) {
	m := keyModel(t)
	m.Profile = customKeyedProfile{}
	k := mustKey(t, m)
	if !strings.Contains(k, "custom:my-profile-v2") {
		t.Errorf("CacheKeyer profile ignored: %s", k)
	}
	m.Profile = namedOnlyProfile{}
	k = mustKey(t, m)
	if !strings.Contains(k, "named:named-only") {
		t.Errorf("Name fallback missing: %s", k)
	}
}

// keyProfileKinds are the five built-in profile kinds, each built from
// the profile parameters x[12:] = (α, σ, κ, γ); params lists the indices
// of x the kind reads.
var keyProfileKinds = []struct {
	params []int
	build  func(x []float64) speedup.Profile
}{
	{[]int{12}, func(x []float64) speedup.Profile { return speedup.Amdahl{Alpha: x[12]} }},
	{nil, func([]float64) speedup.Profile { return speedup.PerfectlyParallel{} }},
	{[]int{12, 13, 14}, func(x []float64) speedup.Profile {
		return speedup.AmdahlComm{Alpha: x[12], Speed: x[13], Comm: x[14]}
	}},
	{[]int{12}, func(x []float64) speedup.Profile { return speedup.Gustafson{Alpha: x[12]} }},
	{[]int{15}, func(x []float64) speedup.Profile { return speedup.PowerLaw{Gamma: x[15]} }},
}

// keyParamModel builds the model whose twelve platform and resilience
// parameters are x[:12], in CacheKey's order, with a profile of the
// given kind.
func keyParamModel(kind int, x []float64) Model {
	return Model{
		LambdaInd:    x[0],
		FailStopFrac: x[1],
		SilentFrac:   x[2],
		Res: costmodel.Resilience{
			Checkpoint:   costmodel.Checkpoint{A: x[3], B: x[4], C: x[5]},
			Recovery:     costmodel.Checkpoint{A: x[6], B: x[7], C: x[8]},
			Verification: costmodel.Verification{V: x[9], U: x[10]},
			Downtime:     x[11],
		},
		Profile: keyProfileKinds[kind].build(x),
	}
}

// FuzzModelCacheKey builds a valid model from its input (a rate, a
// fail-stop fraction, a cost scale that sets the nine resilience costs
// and the downtime, and a profile parameter), changes one of its
// parameters and keys both. The keys must be equal exactly when the old
// and new values compare == (so +0 and −0 share a key), a NaN value must
// be an error, and rebuilding the model with another built-in profile
// kind must change the key. how picks the new value: the raw input, the
// old value, its negation or the next float above it.
func FuzzModelCacheKey(f *testing.F) {
	for _, seed := range []struct {
		lambda, frac, cost, prof float64
		kind, other, which, how  uint8
		raw                      float64
	}{
		{1.69e-8, 0.2188, 300, 0.1, 0, 1, 0, 3, 0},
		{0, 0.5, 60, 0.1, 0, 3, 0, 2, 0},
		{1e-9, 0, 0, 0, 2, 4, 11, 2, 0},
		{1e-9, 1, 120, 0.3, 2, 0, 13, 0, math.NaN()},
		{2.3e-9, 0.1667, 2500, 0.5, 4, 2, 12, 1, 0},
		{1e-6, 0.75, 10, 2, 3, 0, 5, 0, math.Inf(1)},
	} {
		f.Add(seed.lambda, seed.frac, seed.cost, seed.prof, seed.kind, seed.other, seed.which, seed.how, seed.raw)
	}
	f.Fuzz(func(t *testing.T, lambda, frac, cost, prof float64, kind, other, which, how uint8, raw float64) {
		frac = math.Mod(math.Abs(frac), 1)
		cost = math.Abs(cost)
		prof = math.Abs(prof)
		x := []float64{
			math.Abs(lambda), frac, 1 - frac,
			cost, cost / 3, cost * 1e-3, cost / 2, cost / 5, cost * 2e-3,
			cost / 10, cost / 100, cost * 12,
			math.Mod(prof, 1), 1 + prof, prof * 1e-6, math.Mod(prof, 1),
		}
		k := int(kind) % len(keyProfileKinds)
		m := keyParamModel(k, x)
		if m.Validate() != nil {
			t.Skip("the input builds no valid model")
		}
		base, err := m.CacheKey()
		if err != nil {
			t.Fatalf("valid model %+v: %v", m, err)
		}

		if o := int(other) % len(keyProfileKinds); o != k {
			if key, err := keyParamModel(o, x).CacheKey(); err != nil || key == base {
				t.Fatalf("profile kinds %d and %d share key %q (err %v)", k, o, base, err)
			}
		}

		params := append([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, keyProfileKinds[k].params...)
		i := params[int(which)%len(params)]
		old := x[i]
		v := raw
		switch how % 4 {
		case 1:
			v = old
		case 2:
			v = -old
		case 3:
			v = math.Nextafter(old, math.Inf(1))
		}
		y := append([]float64(nil), x...)
		y[i] = v
		key, err := keyParamModel(k, y).CacheKey()
		switch {
		case math.IsNaN(v):
			if err == nil {
				t.Fatalf("parameter %d = NaN keyed as %q", i, key)
			}
		case err != nil:
			t.Fatalf("parameter %d = %g: %v", i, v, err)
		case (key == base) != (v == old):
			t.Fatalf("parameter %d: %g → %g, keys equal = %t\nbefore: %s\nafter:  %s", i, old, v, key == base, base, key)
		}
	})
}
