//go:build race

package cimp_test

// raceEnabled reports whether the race detector is compiled in: the
// state-walking differential tests shrink their caps under its ~10x
// slowdown, and the allocation budget is only meaningful without it.
const raceEnabled = true
