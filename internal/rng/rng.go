// Package rng provides the deterministic random-number substrate used by
// the Monte-Carlo simulator and the synthetic trace generator.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through
// SplitMix64, which gives high-quality 64-bit streams from any seed,
// including 0. Streams can be split deterministically by name or index, so
// every simulation run in a parallel experiment has its own independent,
// reproducible stream: running the same experiment twice — on any machine,
// with any GOMAXPROCS — produces bit-identical results.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the SplitMix64 state and returns the next value.
// It is used only for seeding and stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. It is not safe for concurrent use; use
// Split to derive independent per-goroutine streams instead of sharing.
type Rand struct {
	s        [4]uint64
	spare    float64 // cached second variate for Normal
	hasSpare bool
}

// New returns a generator seeded from the given seed. Any seed, including
// zero, yields a well-mixed state.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; SplitMix64 cannot produce
	// four zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return &r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives a new independent generator from this one, keyed by index.
// Splitting is deterministic: the same parent seed and index always produce
// the same child stream, and the parent's own sequence is not consumed.
func (r *Rand) Split(index uint64) *Rand {
	// Mix the parent state with the index through SplitMix64. Using all
	// four words makes child streams distinct even for adjacent indices.
	sm := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ bits.RotateLeft64(r.s[2], 27) ^
		bits.RotateLeft64(r.s[3], 41) ^ (index * 0xD1B54A32D192ED03)
	var child Rand
	for i := range child.s {
		child.s[i] = splitmix64(&sm)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return &child
}

// SplitString derives a child stream keyed by a string label, for named
// experiment sub-streams ("failstop", "silent", …).
func (r *Rand) SplitString(label string) *Rand {
	return r.Split(HashLabel(label))
}

// HashLabel folds a label into 64 bits with FNV-1a: the one fold behind
// SplitString, the experiment drivers' cell seeds and the campaign cell
// seeds. The offset basis is this package's own 1469598103934665603, not
// hash/fnv's 14695981039346656037: every pinned stream and seed in the
// repo derives from it, so it must never change.
func HashLabel(label string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in the open interval (0, 1),
// suitable for inversion sampling where log(0) must be avoided.
func (r *Rand) Float64Open() float64 {
	for {
		u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate),
// via inversion: −log(U)/rate. It panics for non-positive rates.
func (r *Rand) Exp(rate float64) float64 {
	if !(rate > 0) {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// ExpInv returns an exponential variate with mean invRate = 1/rate, for
// hot loops that have hoisted the rate inversion out of the draw:
// −log(U)·invRate costs one multiply where Exp pays a divide. The result
// may differ from Exp(1/invRate) in the last ulp (multiplication by the
// rounded reciprocal is not the same rounding as division), so a caller
// switching between the two changes its sampled stream.
func (r *Rand) ExpInv(invRate float64) float64 {
	return -math.Log(r.Float64Open()) * invRate
}

// Weibull returns a Weibull variate with the given shape k and scale λ,
// via inversion: λ·(−ln U)^{1/k}. Shape 1 degenerates to an exponential
// with mean λ; because Pow(x, 1) = x exactly and the draw consumes the
// same single uniform as Exp, a shape-1 Weibull walks the identical
// sample path as ExpInv(λ) — calibrated callers fall back bit-identically
// whenever the scale is an exact reciprocal of the rate (e.g. dyadic
// rates), and in distribution always. It panics for non-positive
// parameters.
func (r *Rand) Weibull(shape, scale float64) float64 {
	// !(x > 0) also catches NaN, honouring the fail-fast contract.
	if !(shape > 0) || !(scale > 0) {
		panic("rng: Weibull with non-positive shape or scale")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// LogNormal returns a variate whose logarithm is Normal(mu, sigma):
// exp(μ + σ·Z). It panics for non-positive sigma. Note that the draw
// consumes a variable number of uniforms (polar rejection) and caches a
// spare normal, so it is not stream-compatible with Exp.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	if !(sigma > 0) {
		panic("rng: LogNormal with non-positive sigma")
	}
	return math.Exp(mu + sigma*r.Normal())
}

// Gamma returns a Gamma(shape k, scale θ) variate (mean k·θ) using the
// Marsaglia–Tsang squeeze method, with the U^{1/k} boost for shape < 1.
// It panics for non-positive parameters.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if !(shape > 0) || !(scale > 0) {
		panic("rng: Gamma with non-positive shape or scale")
	}
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) · U^{1/k}  (Marsaglia & Tsang, 2000).
		return r.Gamma(shape+1, scale) * math.Pow(r.Float64Open(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Normal returns a standard normal variate using the Marsaglia polar
// method. The spare variate is cached across calls.
func (r *Rand) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}
