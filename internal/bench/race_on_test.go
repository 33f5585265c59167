//go:build race

package bench

// raceEnabled reports that the race detector is compiled in: its runtime
// allocates on its own account, so exact malloc ceilings do not hold.
const raceEnabled = true
