//go:build !race

package flash

const raceEnabled = false
