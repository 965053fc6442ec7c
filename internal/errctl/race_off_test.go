//go:build !race

package errctl

const raceDetector = false
