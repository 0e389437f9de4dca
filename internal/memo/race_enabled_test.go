//go:build race

package memo

// raceEnabled reports that the race detector is active: its instrumentation
// allocates, so steady-state allocation assertions carry no signal and are
// skipped.
func init() { raceEnabled = true }
