//go:build !race

package optimize

const raceEnabled = false
