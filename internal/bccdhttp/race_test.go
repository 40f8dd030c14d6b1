//go:build race

package bccdhttp

// The race detector's instrumentation adds allocations the exact
// allocs-per-request bounds would misattribute to the handler; those
// bounds are checked by the non-race CI test step.
const raceEnabled = true
