//go:build race

package cluster_test

// raceEnabled reports whether the race detector is active; allocation
// counts are not meaningful under its instrumentation.
const raceEnabled = true
