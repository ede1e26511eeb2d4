// Fixtures for the keyfmt analyzer: float formatting inside cache-key
// builders (functions whose name contains "key").
package keyfmt

import (
	"fmt"
	"strconv"

	"amdahlyd/internal/core"
)

func cacheKey(lambda float64, n int) string {
	return fmt.Sprintf("m|%g|%d", lambda, n) // want `float lambda formatted with %g inside a key builder`
}

func optionsKey(tol float64) string {
	return "opt|" + fmt.Sprintf("%v", tol) // want `float tol formatted with %v inside a key builder`
}

func precisionKey(v float64) string {
	return fmt.Sprintf("p|%8.3f", v) // want `float v formatted with %f inside a key builder`
}

func sprintKey(t float64) string {
	return fmt.Sprint("t=", t) // want `float t enters a cache key through fmt\.Sprint`
}

func decimalKey(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64) // want `strconv\.FormatFloat\('g'\) inside a key builder`
}

func appendDecimalKey(dst []byte, f float64) []byte {
	return strconv.AppendFloat(dst, f, 'e', -1, 64) // want `strconv\.AppendFloat\('e'\) inside a key builder`
}

// The canonical token: exact-hex encoding, shared with core.CacheKey.
func goodKey(lambda float64, n int) string {
	return fmt.Sprintf("m|%s|%d", core.FormatFloatKey(lambda), n)
}

// A hand-rolled hex token is bit-exact and accepted, in either form.
func hexKeyToken(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

func appendHexKeyToken(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'x', -1, 64)
}

// Non-key functions are out of scope: %g in reports and errors is fine.
func describe(lambda float64) string {
	return fmt.Sprintf("lambda=%g", lambda)
}

func suppressedKey(v float64) string {
	//lint:allow keyfmt fixture: debug-only label, never used as a cache key
	return fmt.Sprintf("dbg|%g", v)
}
