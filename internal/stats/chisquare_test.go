package stats

import (
	"testing"

	"amdahlyd/internal/rng"
)

func TestChiSquareGOFUniformDie(t *testing.T) {
	// A fair-die sample that matches expectations closely must pass.
	observed := []int64{102, 98, 100, 97, 103, 100}
	expected := []float64{100, 100, 100, 100, 100, 100}
	res, err := ChiSquareGOF(observed, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 5 {
		t.Errorf("df = %d, want 5", res.DF)
	}
	if res.Reject(0.05) {
		t.Errorf("near-perfect fit rejected: χ²=%g p=%g", res.Statistic, res.PValue)
	}
	// A grossly skewed sample must fail.
	skewed := []int64{300, 50, 50, 50, 75, 75}
	res, err = ChiSquareGOF(skewed, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Errorf("skewed sample accepted: p=%g", res.PValue)
	}
}

func TestChiSquareGOFValidation(t *testing.T) {
	if _, err := ChiSquareGOF([]int64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareGOF([]int64{10}, []float64{10}, 0); err == nil {
		t.Error("single bin accepted")
	}
	if _, err := ChiSquareGOF([]int64{10, 10}, []float64{10, 10}, 1); err == nil {
		t.Error("zero degrees of freedom accepted")
	}
	if _, err := ChiSquareGOF([]int64{10, 10}, []float64{10, 2}, 0); err == nil {
		t.Error("sparse expected bin accepted")
	}
}

// poisson draws a Poisson(mean) count as the number of unit-rate
// exponential arrivals in [0, mean).
func poisson(r *rng.Rand, mean float64) int64 {
	var k int64
	for t := r.Exp(1); t < mean; t += r.Exp(1) {
		k++
	}
	return k
}

func TestChiSquarePoissonAcceptsPoisson(t *testing.T) {
	r := rng.New(8)
	mean := 6.5
	counts := make([]int64, 4000)
	for i := range counts {
		counts[i] = poisson(r, mean)
	}
	res, err := ChiSquarePoisson(counts, mean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Errorf("true Poisson rejected: χ²=%g df=%d p=%g", res.Statistic, res.DF, res.PValue)
	}
}

func TestChiSquarePoissonRejectsWrongMean(t *testing.T) {
	r := rng.New(6)
	counts := make([]int64, 4000)
	for i := range counts {
		counts[i] = poisson(r, 6.5)
	}
	res, err := ChiSquarePoisson(counts, 9.0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Errorf("wrong mean accepted: p=%g", res.PValue)
	}
}

func TestChiSquarePoissonRejectsOverdispersed(t *testing.T) {
	// A 50/50 mixture of Poisson(2) and Poisson(12) has mean 7 but is
	// overdispersed; the test must catch it.
	r := rng.New(7)
	counts := make([]int64, 4000)
	for i := range counts {
		if r.Float64() < 0.5 {
			counts[i] = poisson(r, 2)
		} else {
			counts[i] = poisson(r, 12)
		}
	}
	res, err := ChiSquarePoisson(counts, 7.0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Errorf("overdispersed mixture accepted: p=%g", res.PValue)
	}
}

func TestChiSquarePoissonValidation(t *testing.T) {
	if _, err := ChiSquarePoisson(nil, 5); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := ChiSquarePoisson([]int64{1, 2}, 0); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := ChiSquarePoisson([]int64{-1}, 5); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMergeSparseBins(t *testing.T) {
	obs := []int64{1, 2, 50, 3, 1}
	exp := []float64{1, 2, 50, 3, 1}
	o, e := mergeSparseBins(obs, exp, 5)
	var sumO int64
	var sumE float64
	for i := range o {
		sumO += o[i]
		sumE += e[i]
		if i < len(o)-1 && e[i] < 5 {
			t.Errorf("bin %d still sparse: %g", i, e[i])
		}
	}
	if sumO != 57 || sumE != 57 {
		t.Errorf("mass not conserved: %d, %g", sumO, sumE)
	}
}
