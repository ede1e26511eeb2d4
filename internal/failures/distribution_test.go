package failures

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/rng"
	"amdahlyd/internal/stats"
)

func TestDistributionCalibration(t *testing.T) {
	mtbf := 5.9171e7 // Hera's 1/λ_ind
	w, err := NewWeibullMTBF(0.7, mtbf)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLogNormalMTBF(1.2, mtbf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGammaMTBF(0.5, mtbf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExponential(1 / mtbf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Distribution{w, l, g, e} {
		if math.Abs(d.Mean()-mtbf)/mtbf > 1e-12 {
			t.Errorf("%s mean = %g, want MTBF %g", d.Name(), d.Mean(), mtbf)
		}
		// The CDF must be a valid distribution function over a broad range.
		prev := 0.0
		for _, x := range []float64{0, 1, mtbf / 100, mtbf, 10 * mtbf, 1e4 * mtbf} {
			c := d.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				t.Errorf("%s CDF(%g) = %g not monotone in [0,1]", d.Name(), x, c)
			}
			prev = c
		}
		if c := d.CDF(1e6 * mtbf); c < 0.999 {
			t.Errorf("%s CDF far right = %g, want ≈1", d.Name(), c)
		}
	}
}

func TestDistributionConstructorValidation(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("zero-rate exponential accepted")
	}
	if _, err := NewWeibullMTBF(0, 100); err == nil {
		t.Error("zero-shape weibull accepted")
	}
	if _, err := NewWeibullMTBF(0.7, -1); err == nil {
		t.Error("negative-MTBF weibull accepted")
	}
	if _, err := NewLogNormalMTBF(0, 100); err == nil {
		t.Error("zero-sigma lognormal accepted")
	}
	if _, err := NewGammaMTBF(math.Inf(1), 100); err == nil {
		t.Error("infinite-shape gamma accepted")
	}
	// Degenerate shapes must fail at construction, not stall generation
	// or livelock the simulator with underflowing samples: the
	// calibrated constructors bound their shape parameters.
	for _, bad := range []float64{0.005, 0.09, 11, 1e300, math.NaN()} {
		if _, err := NewWeibullMTBF(bad, 1e6); err == nil {
			t.Errorf("weibull shape %g outside [0.1,10] accepted", bad)
		}
	}
	for _, bad := range []float64{4.1, 50, 1e200, math.NaN()} {
		if _, err := NewLogNormalMTBF(bad, 1e6); err == nil {
			t.Errorf("lognormal sigma %g outside (0,4] accepted", bad)
		}
	}
	for _, bad := range []float64{0.05, 1001, 1e308, math.NaN()} {
		if _, err := NewGammaMTBF(bad, 1e6); err == nil {
			t.Errorf("gamma shape %g outside [0.1,1000] accepted", bad)
		}
	}
}

// A degenerate law slipped past the constructors (direct struct use)
// must be caught by the generation-loop guards rather than hanging.
func TestGenerateTraceDistStallGuard(t *testing.T) {
	// σ = 50 ⇒ μ ≈ ln(1e6) − 1250: every sample underflows to 0 and the
	// trace clock never advances.
	frozen := LogNormal{Mu: math.Log(1e6) - 50*50/2, Sigma: 50}
	if _, err := GenerateTraceDist(frozen, 0.3, 2, 1e6, rng.New(3)); err == nil {
		t.Error("underflowing law generated a trace instead of erroring")
	}
}

func TestParseDistribution(t *testing.T) {
	rate := 1.69e-8
	for _, name := range []string{"exponential", "exp", ""} {
		d, err := ParseDistribution(name, 0.7, rate)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := d.(Exponential)
		if !ok || e.Rate != rate {
			// The rate must pass through verbatim, not via 1/(1/rate).
			t.Errorf("ParseDistribution(%q) = %#v, want Exponential{%g}", name, d, rate)
		}
	}
	for _, name := range []string{"weibull", "lognormal", "gamma"} {
		d, err := ParseDistribution(name, 0.7, rate)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Mean()-1/rate)*rate > 1e-12 {
			t.Errorf("%s not calibrated: mean %g, want %g", name, d.Mean(), 1/rate)
		}
	}
	if _, err := ParseDistribution("cauchy", 1, rate); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := ParseDistribution("weibull", 0.7, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := ParseDistribution("weibull", -1, rate); err == nil {
		t.Error("negative shape accepted")
	}
}

// Per-processor inter-arrivals of a renewal trace must follow the
// generating law: KS goodness-of-fit for each new distribution.
func TestTraceDistInterArrivalsKS(t *testing.T) {
	lambda := 1e-6
	mtbf := 1 / lambda
	mk := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dists := []Distribution{
		mk(NewWeibullMTBF(0.7, mtbf)),
		mk(NewWeibullMTBF(0.5, mtbf)),
		mk(NewLogNormalMTBF(1.0, mtbf)),
		mk(NewGammaMTBF(0.5, mtbf)),
		mk(NewGammaMTBF(2.0, mtbf)),
	}
	for i, d := range dists {
		tr, err := GenerateTraceDist(d, 0.3, 32, 2.5e8, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		inter := tr.ProcInterArrivals()
		if len(inter) < 3000 {
			t.Fatalf("%s: trace too sparse for KS: %d gaps", d.Name(), len(inter))
		}
		res, err := stats.KSTest(inter, d.CDF)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.01) {
			t.Errorf("%s: per-proc inter-arrivals rejected: D=%g p=%g n=%d",
				d.Name(), res.Statistic, res.PValue, res.N)
		}
	}
}

// The superposition property is exponential-only: a Weibull k=0.5 merged
// stream must NOT look like Exp(P·λ) — the discriminating power of the
// KS oracle, and the reason the robustness study exists at all.
func TestWeibullMergedStreamIsNotExponential(t *testing.T) {
	lambda := 1e-6
	d, err := NewWeibullMTBF(0.5, 1/lambda)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTraceDist(d, 0.3, 64, 2e8, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	inter := tr.InterArrivals()
	if len(inter) < 5000 {
		t.Fatalf("trace too sparse: %d", len(inter))
	}
	res, err := stats.KSTestExponential(inter, lambda*64)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.01) {
		t.Errorf("bursty Weibull merged stream passed as exponential: D=%g p=%g",
			res.Statistic, res.PValue)
	}
}

// Weibull with shape 1 must reproduce the exponential trace
// bit-identically when the calibrated scale is an exact reciprocal of
// the rate (dyadic rates): same uniforms, exact power-of-two scaling.
func TestWeibullShape1TraceBitIdentical(t *testing.T) {
	lambda := math.Exp2(-20) // dyadic: 1/λ and λ·x round exactly
	w, err := NewWeibullMTBF(1, 1/lambda)
	if err != nil {
		t.Fatal(err)
	}
	if w.Scale != 1/lambda {
		t.Fatalf("shape-1 calibration: scale %g, want %g", w.Scale, 1/lambda)
	}
	exp, err := GenerateTraceDist(Exponential{Rate: lambda}, 0.3, 16, 3e7, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	wei, err := GenerateTraceDist(w, 0.3, 16, 3e7, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Events) == 0 {
		t.Fatal("empty exponential trace")
	}
	if len(exp.Events) != len(wei.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(exp.Events), len(wei.Events))
	}
	for i := range exp.Events {
		if exp.Events[i] != wei.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, exp.Events[i], wei.Events[i])
		}
	}
	if exp.Horizon != wei.Horizon {
		t.Error("horizons differ")
	}
}

// For non-dyadic rates the shape-1 path may differ in the last ulp per
// draw; it must still be statistically exponential.
func TestWeibullShape1TraceStatisticallyExponential(t *testing.T) {
	lambda := 1e-6
	w, err := NewWeibullMTBF(1, 1/lambda)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTraceDist(w, 0.3, 64, 2e8, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	inter := tr.InterArrivals()
	res, err := stats.KSTestExponential(inter, lambda*64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("shape-1 Weibull merged stream rejected as Exp(Pλ): D=%g p=%g",
			res.Statistic, res.PValue)
	}
}

// Golden pin of the exponential generator: these fingerprints were
// captured from the generator that predates the Distribution interface;
// GenerateTraceDist with the exponential law must reproduce them
// bit-identically for the same seed.
func TestGenerateTraceGoldenPinned(t *testing.T) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-6}, 0.3, 64, 2e8, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 12673 {
		t.Fatalf("event count = %d, want 12673", len(tr.Events))
	}
	if fs := tr.Count(FailStop); fs != 3775 {
		t.Errorf("fail-stop count = %d, want 3775", fs)
	}
	var sum float64
	for _, e := range tr.Events {
		sum += e.Time * float64(1+int(e.Kind)) * float64(1+e.Proc)
	}
	if got := math.Float64bits(sum); got != math.Float64bits(0x1.0149692cfc5c4p+46) {
		t.Errorf("event checksum = %x, want %x", sum, 0x1.0149692cfc5c4p+46)
	}
	if got := math.Float64bits(tr.Events[0].Time); got != math.Float64bits(0x1.780da56500a67p+14) {
		t.Errorf("first event time = %x, want %x", tr.Events[0].Time, 0x1.780da56500a67p+14)
	}
	if p := tr.Events[len(tr.Events)-1].Proc; p != 40 {
		t.Errorf("last event proc = %d, want 40", p)
	}
}

// Regression test for the unstable-sort bug: equal-time events from
// different processors must land in (Time, Proc) order regardless of
// input permutation, or replay is platform-dependent.
func TestSortEventsDeterministicTieBreak(t *testing.T) {
	events := []Event{
		{Time: 7, Kind: Silent, Proc: 3},
		{Time: 5, Kind: FailStop, Proc: 9},
		{Time: 5, Kind: Silent, Proc: 2},
		{Time: 5, Kind: Silent, Proc: 7},
		{Time: 1, Kind: FailStop, Proc: 4},
		{Time: 5, Kind: FailStop, Proc: 0},
	}
	want := []Event{
		{Time: 1, Kind: FailStop, Proc: 4},
		{Time: 5, Kind: FailStop, Proc: 0},
		{Time: 5, Kind: Silent, Proc: 2},
		{Time: 5, Kind: Silent, Proc: 7},
		{Time: 5, Kind: FailStop, Proc: 9},
		{Time: 7, Kind: Silent, Proc: 3},
	}
	// Every rotation of the input must sort to the same order.
	for rot := 0; rot < len(events); rot++ {
		in := append(append([]Event(nil), events[rot:]...), events[:rot]...)
		SortEvents(in)
		for i := range want {
			if in[i] != want[i] {
				t.Fatalf("rotation %d: position %d = %+v, want %+v", rot, i, in[i], want[i])
			}
		}
	}
}

func TestTraceCSVPersistsHorizon(t *testing.T) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-5}, 0.4, 8, 1e6, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# horizon=") {
		t.Fatalf("missing horizon header:\n%.80s", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Horizon != tr.Horizon {
		t.Errorf("horizon round trip: %g, want %g", back.Horizon, tr.Horizon)
	}
}

func TestReadCSVBackwardCompatWithoutHorizon(t *testing.T) {
	// A legacy file (no comment line) restores the horizon as the last
	// event time.
	in := "time,kind,proc\n100,silent,0\n250,fail-stop,1\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Horizon != 250 {
		t.Errorf("legacy horizon = %g, want 250", tr.Horizon)
	}
	if len(tr.Events) != 2 {
		t.Errorf("legacy events = %d, want 2", len(tr.Events))
	}
}

// A legacy (headerless) trace restores its horizon as the last event
// time; re-saving writes that horizon, so the re-load sees an event at
// exactly the declared horizon — which must be accepted, or legacy
// traces can never survive a read→write→read round trip.
func TestLegacyTraceSurvivesResaveRoundTrip(t *testing.T) {
	legacy := "time,kind,proc\n100,silent,0\n250,fail-stop,1\n"
	tr, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("re-saved legacy trace unreadable: %v", err)
	}
	if back.Horizon != tr.Horizon || len(back.Events) != len(tr.Events) {
		t.Errorf("round trip changed the trace: horizon %g→%g, %d→%d events",
			tr.Horizon, back.Horizon, len(tr.Events), len(back.Events))
	}
}

// Converted real logs may carry extra comment lines; ReadCSV must skip
// them anywhere in the file (only the first line is probed for the
// horizon header).
func TestReadCSVSkipsExtraComments(t *testing.T) {
	in := "# horizon=500\n# source: converted SCR log\ntime,kind,proc\n" +
		"100,silent,0\n# mid-file note\n250,fail-stop,1\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Horizon != 500 || len(tr.Events) != 2 {
		t.Errorf("comments mishandled: horizon %g, %d events", tr.Horizon, len(tr.Events))
	}
}

// An out-of-order converted log must be sorted on load: the replay
// cursor needs a monotone trace, the legacy horizon fallback needs the
// true maximum event time, and an event past the declared horizon must
// be caught even when it is not the last row.
func TestReadCSVSortsOutOfOrderLogs(t *testing.T) {
	in := "time,kind,proc\n5e6,silent,0\n1e6,fail-stop,1\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Time != 1e6 || tr.Events[1].Time != 5e6 {
		t.Errorf("events not sorted: %+v", tr.Events)
	}
	if tr.Horizon != 5e6 {
		t.Errorf("legacy horizon = %g, want max event time 5e6", tr.Horizon)
	}
	bad := "# horizon=2e6\ntime,kind,proc\n5e6,silent,0\n1e6,fail-stop,1\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("mid-file event beyond declared horizon accepted")
	}
}

func TestReadCSVRejectsBadHorizon(t *testing.T) {
	cases := []string{
		"# horizon=zero\ntime,kind,proc\n1,silent,0\n",
		"# horizon=-5\ntime,kind,proc\n1,silent,0\n",
		"# horizon=2\ntime,kind,proc\n3,silent,0\n",     // event beyond horizon
		"time,kind,proc\nNaN,fail-stop,3\n",             // NaN defeats sort + horizon checks
		"time,kind,proc\n+Inf,silent,0\n",               // ditto
		"# horizon=5\ntime,kind,proc\n-1,fail-stop,0\n", // negative exposure time
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad horizon accepted", i)
		}
	}
}

// CacheKey must separate the built-in laws structurally, even where the
// human-readable Name would round parameters together.
func TestDistributionCacheKey(t *testing.T) {
	w1, err := NewWeibullMTBF(0.7, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWeibullMTBF(0.7, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(w1) != CacheKey(w2) {
		t.Error("identical Weibulls keyed differently")
	}
	// A last-ulp scale change is invisible to the %.6g Name but must not
	// be invisible to the key.
	w3 := w1
	w3.Scale = math.Nextafter(w3.Scale, math.Inf(1))
	if CacheKey(w1) == CacheKey(w3) {
		t.Error("ulp-perturbed Weibull shares a key")
	}
	g, err := NewGammaMTBF(0.7, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{
		CacheKey(nil):                  "nil",
		CacheKey(Exponential{Rate: 1}): "exp",
		CacheKey(w1):                   "weibull",
		CacheKey(g):                    "gamma",
	}
	ln, err := NewLogNormalMTBF(1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	keys[CacheKey(ln)] = "lognormal"
	if len(keys) != 5 {
		t.Errorf("law keys collide: %v", keys)
	}
}
