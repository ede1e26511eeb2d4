//go:build race

package optimize_test

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap, so the allocation contracts are not checked there.
const raceEnabled = true
