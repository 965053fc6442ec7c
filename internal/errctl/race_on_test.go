//go:build race

package errctl

// raceDetector reports that the race detector is on: its
// instrumentation allocates on paths that otherwise do not, so recycled
// cycles cannot be held to zero allocations.
const raceDetector = true
