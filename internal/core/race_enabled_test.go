//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The
// exhaustive budget-0 pin multiplies its wall-clock by the detector's
// ~10-20x slowdown without exercising any concurrency the liveness
// tests don't already cover, so it skips itself under -race.
const raceEnabled = true
