//go:build race

package pequod

// raceEnabled reports whether the race detector is active; it changes
// what the runtime allocates, so allocation counts are not asserted
// under it.
const raceEnabled = true
