//go:build race

package errctl

// raceDetector reports that the race detector is on: sync.Pool then
// drops a quarter of what is Put, so pooled cycles cannot be held to
// zero allocations.
const raceDetector = true
