package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs from different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Error("zero seed produced repeated values suspiciously fast")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Error("adjacent split children start identically")
	}
	// Splitting does not consume the parent stream.
	p1 := New(7)
	_ = p1.Split(0)
	p2 := New(7)
	for i := 0; i < 100; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatal("Split consumed parent state")
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split(12345)
	b := New(99).Split(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split not deterministic")
		}
	}
}

func TestSplitStringDistinct(t *testing.T) {
	r := New(5)
	a := r.SplitString("failstop")
	b := r.SplitString("silent")
	c := r.SplitString("failstop")
	if a.Uint64() == b.Uint64() {
		t.Error("different labels produced same stream start")
	}
	a2 := New(5).SplitString("failstop")
	a2v := a2.Uint64()
	cv := c.Uint64()
	if a2v != cv {
		t.Error("same label not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", u)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64Open()
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %g", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 2_000_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 2e-3 {
		t.Errorf("uniform mean = %g, want 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 2e-3 {
		t.Errorf("uniform variance = %g, want %g", variance, 1.0/12)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, buckets = 600000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Errorf("bucket %d count %d deviates >2%% from %g", b, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(23)
	rate := 2.5
	const n = 1_000_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1/rate)/(1/rate) > 0.01 {
		t.Errorf("exp mean = %g, want %g", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate))/(1/(rate*rate)) > 0.02 {
		t.Errorf("exp variance = %g, want %g", variance, 1/(rate*rate))
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) should panic")
		}
	}()
	New(1).Exp(0)
}

// Memorylessness: P(X > s+t | X > s) = P(X > t). Compare tail frequencies.
func TestExpMemoryless(t *testing.T) {
	r := New(29)
	rate, s, tt := 1.0, 0.7, 1.1
	const n = 1_000_000
	var beyondS, beyondST, beyondT int
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x > s {
			beyondS++
			if x > s+tt {
				beyondST++
			}
		}
		if x > tt {
			beyondT++
		}
	}
	condTail := float64(beyondST) / float64(beyondS)
	tail := float64(beyondT) / float64(n)
	if math.Abs(condTail-tail) > 5e-3 {
		t.Errorf("memorylessness violated: conditional %g vs marginal %g", condTail, tail)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(31)
	const n = 1_000_000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 5e-3 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 1e-2 {
		t.Errorf("normal variance = %g", variance)
	}
	if math.Abs(skew) > 2e-2 {
		t.Errorf("normal third moment = %g, want ~0", skew)
	}
}

// Property: split children with distinct indices never share their first
// few outputs (collision would break run independence).
func TestSplitChildrenDistinctProperty(t *testing.T) {
	parent := New(1234)
	f := func(i, j uint16) bool {
		if i == j {
			return true
		}
		a := parent.Split(uint64(i))
		b := parent.Split(uint64(j))
		return a.Uint64() != b.Uint64() || a.Uint64() != b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1e-5)
	}
	_ = sink
}
