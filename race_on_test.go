//go:build race

package ncs_test

// raceDetector reports that the race detector is on: its
// instrumentation allocates on paths that otherwise do not, so
// allocations per message cannot be held to the delivered copies.
const raceDetector = true
