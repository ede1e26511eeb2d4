//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap, so the allocation contract is not checked there.
const raceEnabled = true
