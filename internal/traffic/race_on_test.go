//go:build race

package traffic

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates on synchronization operations, so the
// allocation-guard tests skip under -race.
const raceEnabled = true
