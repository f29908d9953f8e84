//go:build race

package imgutil

const raceEnabled = true
