//go:build !race

package cimp_test

const raceEnabled = false
