//go:build race

package diffcheck

// raceEnabled reports whether the race detector is compiled in. The
// heavy corpus entries (~200k-state uncapped explorations) multiply
// their wall-clock by the detector's ~10-20x slowdown; the fast entries
// already exercise the reduction under -race, so the heavy ones
// skip themselves.
const raceEnabled = true
