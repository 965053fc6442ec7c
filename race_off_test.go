//go:build !race

package ncs_test

const raceDetector = false
