//go:build race

package freqstat

const raceEnabled = true
