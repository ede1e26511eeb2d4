package core

import (
	"fmt"
	"math"

	"amdahlyd/internal/speedup"
	"amdahlyd/internal/xmath"
)

// CacheKeyer is the optional interface a speedup.Profile (or any other
// model component) can implement to provide its own canonical cache key.
// The contract is the same as Model.CacheKey's: two components with equal
// keys must evaluate identically everywhere, and two observably different
// components must produce different keys.
type CacheKeyer interface {
	CacheKey() string
}

// CacheKey returns a canonical, hashable identity for the model, suitable
// as a cache key for compiled evaluators (Frozen), memoized optimizer
// results and Monte-Carlo campaign results.
//
// Canonicalization rules (documented in DESIGN.md, "Service layer"):
//
//   - every float64 parameter is encoded with strconv's 'x' format
//     (xmath.AppendFloatKey, exact shortest hexadecimal): two parameters
//     map to the same token iff they are the same float64 bit pattern
//     (with -0 and +0 collapsed deliberately — they evaluate identically
//     in every formula);
//   - the speedup profile is keyed by exact type plus its parameters for
//     the five built-in profiles; a custom profile must implement
//     CacheKeyer (preferred) or provide an injective Name();
//   - NaN parameters are rejected: NaN never compares equal, so a NaN key
//     would poison a cache with unreachable entries (and the model is
//     invalid anyway).
//
// The key is *identity*, not equivalence: models that happen to evaluate
// equal (e.g. a zero-rate exponential vs a zero silent fraction) hash
// apart, which only costs a duplicate cache slot, never a wrong result.
func (m Model) CacheKey() (string, error) {
	var buf [modelKeyBuf]byte
	b, err := m.AppendCacheKey(buf[:0])
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// modelKeyBuf holds a typical model key on the stack: twelve hex floats
// of up to 24 bytes each plus a built-in profile.
const modelKeyBuf = 384

// AppendCacheKey appends the bytes CacheKey returns to dst, so a caller
// can build a key that extends the model key (a request key, a
// heterogeneous group) in one buffer. On error the returned slice is
// meaningless.
func (m Model) AppendCacheKey(dst []byte) ([]byte, error) {
	params := [...]float64{
		m.LambdaInd, m.FailStopFrac, m.SilentFrac,
		m.Res.Checkpoint.A, m.Res.Checkpoint.B, m.Res.Checkpoint.C,
		m.Res.Recovery.A, m.Res.Recovery.B, m.Res.Recovery.C,
		m.Res.Verification.V, m.Res.Verification.U, m.Res.Downtime,
	}
	for _, v := range params {
		if math.IsNaN(v) {
			return dst, fmt.Errorf("core: cannot key a model with NaN parameters")
		}
	}
	dst = append(dst, "m1|"...) // key-format version: bump when the layout changes
	for _, v := range params {
		dst = xmath.AppendFloatKey(dst, v)
		dst = append(dst, '|')
	}
	// The speedup profile: the built-in profiles are keyed structurally
	// (exact type + exact parameters); anything else must either
	// implement CacheKeyer or rely on an injective Name().
	switch prof := m.Profile.(type) {
	case nil:
		return dst, fmt.Errorf("core: cannot key a model with a nil profile")
	case speedup.Amdahl:
		if math.IsNaN(prof.Alpha) {
			return dst, fmt.Errorf("core: cannot key an Amdahl profile with NaN α")
		}
		return xmath.AppendFloatKey(append(dst, "amdahl:"...), prof.Alpha), nil
	case speedup.PerfectlyParallel:
		return append(dst, "pp"...), nil
	case speedup.AmdahlComm:
		if math.IsNaN(prof.Alpha) || math.IsNaN(prof.Speed) || math.IsNaN(prof.Comm) {
			return dst, fmt.Errorf("core: cannot key an AmdahlComm profile with NaN parameters")
		}
		dst = xmath.AppendFloatKey(append(dst, "amdahlcomm:"...), prof.Alpha)
		dst = xmath.AppendFloatKey(append(dst, ','), prof.Speed)
		return xmath.AppendFloatKey(append(dst, ','), prof.Comm), nil
	case speedup.Gustafson:
		if math.IsNaN(prof.Alpha) {
			return dst, fmt.Errorf("core: cannot key a Gustafson profile with NaN α")
		}
		return xmath.AppendFloatKey(append(dst, "gustafson:"...), prof.Alpha), nil
	case speedup.PowerLaw:
		if math.IsNaN(prof.Gamma) {
			return dst, fmt.Errorf("core: cannot key a power-law profile with NaN γ")
		}
		return xmath.AppendFloatKey(append(dst, "powerlaw:"...), prof.Gamma), nil
	case CacheKeyer:
		return append(append(dst, "custom:"...), prof.CacheKey()...), nil
	}
	// Last resort: the display name. Names are meant for humans — nothing
	// forces a custom profile to embed every parameter, or to format them
	// losslessly — so this is only safe for profiles whose Name() is
	// injective, hence the preference order above.
	return append(append(dst, "named:"...), m.Profile.Name()...), nil
}

// FormatFloatKey encodes one float64 exactly for use inside cache keys;
// it is xmath.FloatKey, the canonical token shared by Model.CacheKey,
// the distribution keys in internal/failures and the request keys in
// internal/service.
func FormatFloatKey(v float64) string {
	return xmath.FloatKey(v)
}
