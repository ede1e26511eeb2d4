//go:build !race

package optimize_test

const raceEnabled = false
