//go:build !race

package pdl

const raceEnabled = false
