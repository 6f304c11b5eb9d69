//go:build race

package main

// raceEnabled reports a race-detector build, which runs the served system
// an order of magnitude slower.
const raceEnabled = true
