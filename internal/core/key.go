package core

import (
	"fmt"
	"math"
	"strings"

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
//   - every float64 parameter is encoded with strconv.FormatFloat 'x'
//     (exact shortest hexadecimal): two parameters map to the same token
//     iff they are the same float64 bit pattern (with -0 and +0 collapsed
//     deliberately — they evaluate identically in every formula);
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
	for _, v := range []float64{
		m.LambdaInd, m.FailStopFrac, m.SilentFrac,
		m.Res.Checkpoint.A, m.Res.Checkpoint.B, m.Res.Checkpoint.C,
		m.Res.Recovery.A, m.Res.Recovery.B, m.Res.Recovery.C,
		m.Res.Verification.V, m.Res.Verification.U, m.Res.Downtime,
	} {
		if math.IsNaN(v) {
			return "", fmt.Errorf("core: cannot key a model with NaN parameters")
		}
	}
	prof, err := profileKey(m.Profile)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(192)
	b.WriteString("m1|") // key-format version: bump when the layout changes
	appendHex(&b, m.LambdaInd)
	appendHex(&b, m.FailStopFrac)
	appendHex(&b, m.SilentFrac)
	appendHex(&b, m.Res.Checkpoint.A)
	appendHex(&b, m.Res.Checkpoint.B)
	appendHex(&b, m.Res.Checkpoint.C)
	appendHex(&b, m.Res.Recovery.A)
	appendHex(&b, m.Res.Recovery.B)
	appendHex(&b, m.Res.Recovery.C)
	appendHex(&b, m.Res.Verification.V)
	appendHex(&b, m.Res.Verification.U)
	appendHex(&b, m.Res.Downtime)
	b.WriteString(prof)
	return b.String(), nil
}

// FormatFloatKey encodes one float64 exactly for use inside cache keys;
// it is xmath.FloatKey, the canonical token shared by Model.CacheKey,
// the distribution keys in internal/failures and the request keys in
// internal/service.
func FormatFloatKey(v float64) string {
	return xmath.FloatKey(v)
}

func appendHex(b *strings.Builder, v float64) {
	b.WriteString(FormatFloatKey(v))
	b.WriteByte('|')
}

// profileKey canonicalizes the speedup profile. The built-in profiles are
// keyed structurally (exact type + exact parameters); anything else must
// either implement CacheKeyer or rely on an injective Name().
func profileKey(p speedup.Profile) (string, error) {
	switch prof := p.(type) {
	case nil:
		return "", fmt.Errorf("core: cannot key a model with a nil profile")
	case speedup.Amdahl:
		if math.IsNaN(prof.Alpha) {
			return "", fmt.Errorf("core: cannot key an Amdahl profile with NaN α")
		}
		return "amdahl:" + FormatFloatKey(prof.Alpha), nil
	case speedup.PerfectlyParallel:
		return "pp", nil
	case speedup.AmdahlComm:
		if math.IsNaN(prof.Alpha) || math.IsNaN(prof.Speed) || math.IsNaN(prof.Comm) {
			return "", fmt.Errorf("core: cannot key an AmdahlComm profile with NaN parameters")
		}
		return "amdahlcomm:" + FormatFloatKey(prof.Alpha) + "," +
			FormatFloatKey(prof.Speed) + "," + FormatFloatKey(prof.Comm), nil
	case speedup.Gustafson:
		if math.IsNaN(prof.Alpha) {
			return "", fmt.Errorf("core: cannot key a Gustafson profile with NaN α")
		}
		return "gustafson:" + FormatFloatKey(prof.Alpha), nil
	case speedup.PowerLaw:
		if math.IsNaN(prof.Gamma) {
			return "", fmt.Errorf("core: cannot key a power-law profile with NaN γ")
		}
		return "powerlaw:" + FormatFloatKey(prof.Gamma), nil
	}
	if k, ok := p.(CacheKeyer); ok {
		return "custom:" + k.CacheKey(), nil
	}
	// Last resort: the display name. Names are meant for humans — nothing
	// forces a custom profile to embed every parameter, or to format them
	// losslessly — so this is only safe for profiles whose Name() is
	// injective, hence the preference order above.
	return "named:" + p.Name(), nil
}
