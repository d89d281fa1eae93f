//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The
// exhaustive pinned runs multiply their wall-clock by the detector's
// ~10-20x slowdown without exercising any concurrency the liveness
// tests don't already cover, so they skip themselves under -race.
const raceEnabled = true
