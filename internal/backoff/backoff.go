// Package backoff is the repo's one retry-delay discipline: exponential
// backoff with deterministic splitmix64 jitter. The campaign executor
// (internal/campaign) and the fleet router (internal/fleet) share this
// exact schedule, so co-failing work decorrelates the same way
// everywhere without making any run nondeterministic — same seed, same
// attempt, same delay.
package backoff

import "time"

// Delay returns the wait before retrying after the given 1-based failed
// attempt: base·2^(attempt-1) plus up to 100% jitter derived
// deterministically from (seed, attempt) by splitmix64. Attempts below 1
// are treated as 1.
func Delay(base time.Duration, attempt int, seed uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base << uint(attempt-1)
	return d + time.Duration(Jitter(seed, attempt)*float64(d))
}

// Jitter returns the deterministic jitter fraction in [0, 1) for the
// (seed, attempt) pair: one splitmix64 step over seed + attempt·γ, the
// same mix the campaign executor has always used.
func Jitter(seed uint64, attempt int) float64 {
	h := seed + uint64(attempt)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}
