//go:build !race

package freqstat

// raceEnabled reports whether the race detector is compiled in; alloc
// assertions are skipped under -race because instrumentation adds
// allocations the production binary never makes.
const raceEnabled = false
