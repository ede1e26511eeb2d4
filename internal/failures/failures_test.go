package failures

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"amdahlyd/internal/rng"
	"amdahlyd/internal/stats"
)

func TestKindString(t *testing.T) {
	if FailStop.String() != "fail-stop" || Silent.String() != "silent" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind String wrong")
	}
}

func TestGenerateTraceSuperposition(t *testing.T) {
	// The merged stream of P independent Exp(λ_ind) processes must be
	// Exp(P·λ_ind): Proposition 1.2 of the fault-tolerance book [13].
	lambda, procs := 1e-6, 64
	horizon := 2e8 // expect ~12800 events
	tr, err := GenerateTraceDist(Exponential{Rate: lambda}, 0.3, procs, horizon, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	inter := tr.InterArrivals()
	if len(inter) < 5000 {
		t.Fatalf("trace too sparse for the test: %d events", len(inter))
	}
	res, err := stats.KSTestExponential(inter, lambda*float64(procs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("superposed stream rejected as Exp(Pλ): D=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestGenerateTraceKindFractions(t *testing.T) {
	f := 0.2188
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-6}, f, 32, 5e8, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	total := len(tr.Events)
	fs := tr.Count(FailStop)
	if total < 1000 {
		t.Fatalf("trace too sparse: %d", total)
	}
	got := float64(fs) / float64(total)
	if math.Abs(got-f) > 0.02 {
		t.Errorf("fail-stop fraction = %g, want %g", got, f)
	}
	if fs+tr.Count(Silent) != total {
		t.Error("kinds do not partition the trace")
	}
}

func TestGenerateTraceOrderingAndHorizon(t *testing.T) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-5}, 0.5, 16, 1e7, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(tr.Events, func(i, j int) bool {
		return tr.Events[i].Time < tr.Events[j].Time
	}) {
		t.Error("trace not time-ordered")
	}
	for _, e := range tr.Events {
		if e.Time >= tr.Horizon {
			t.Errorf("event at %g beyond horizon %g", e.Time, tr.Horizon)
		}
		if e.Proc < 0 || e.Proc >= 16 {
			t.Errorf("event on invalid processor %d", e.Proc)
		}
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	r := rng.New(1)
	exp := Exponential{Rate: 1e-6}
	if _, err := GenerateTraceDist(exp, 1.5, 4, 100, r); err == nil {
		t.Error("f > 1 accepted")
	}
	if _, err := GenerateTraceDist(exp, 0.5, 0, 100, r); err == nil {
		t.Error("0 processors accepted")
	}
	if _, err := GenerateTraceDist(exp, 0.5, 4, 0, r); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateTraceDist(exp, 0.5, 4, 100, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-5}, 0.4, 8, 1e6, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != back.Events[i] {
			t.Fatalf("event %d changed: %+v vs %+v", i, tr.Events[i], back.Events[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"time,kind,proc\nnot-a-number,silent,0\n",
		"time,kind,proc\n1.5,meteor,0\n",
		"time,kind,proc\n1.5,silent,zero\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed CSV accepted", i)
		}
	}
}

func TestReplay(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 1, Kind: Silent, Proc: 0},
		{Time: 2, Kind: FailStop, Proc: 1},
		{Time: 5, Kind: Silent, Proc: 2},
	}, Horizon: 10}
	rp := NewReplay(tr)
	if e, ok := rp.Peek(); !ok || e.Time != 1 {
		t.Error("Peek failed")
	}
	if e, ok := rp.Next(); !ok || e.Time != 1 {
		t.Error("first Next wrong")
	}
	if e, ok := rp.Next(); !ok || e.Time != 2 {
		t.Errorf("second Next wrong: %+v", e)
	}
	if e, ok := rp.Next(); !ok || e.Time != 5 {
		t.Errorf("third Next wrong: %+v", e)
	}
	if _, ok := rp.Next(); ok {
		t.Error("exhausted replay returned an event")
	}
}

func TestInterArrivalsEmpty(t *testing.T) {
	tr := &Trace{}
	if tr.InterArrivals() != nil {
		t.Error("empty trace should have nil inter-arrivals")
	}
}

// The number of events in fixed windows of a Poisson process of rate
// P·λ_ind must be Poisson(P·λ_ind·W): chi-square goodness of fit on the
// generated trace, the distributional companion of the KS test above.
func TestTraceWindowCountsArePoisson(t *testing.T) {
	lambda, procs := 1e-6, 32
	horizon := 4e8
	tr, err := GenerateTraceDist(Exponential{Rate: lambda}, 0.3, procs, horizon, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	window := 2e6 // expect mean 64 events... use larger windows: mean = P·λ·W = 64
	nWindows := int(horizon / window)
	counts := make([]int64, nWindows)
	for _, e := range tr.Events {
		w := int(e.Time / window)
		if w >= nWindows {
			w = nWindows - 1
		}
		counts[w]++
	}
	mean := lambda * float64(procs) * window
	res, err := stats.ChiSquarePoisson(counts, mean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("window counts rejected as Poisson(%g): χ²=%g df=%d p=%g",
			mean, res.Statistic, res.DF, res.PValue)
	}
}
