//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation pins skip under it: race instrumentation inserts
// its own heap allocations.
const raceEnabled = true
