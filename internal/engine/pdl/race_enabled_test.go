//go:build race

package pdl

// raceEnabled reports whether the race detector is active; allocation
// counts are not meaningful under its instrumentation.
const raceEnabled = true
