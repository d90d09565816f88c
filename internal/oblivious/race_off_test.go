//go:build !race

package oblivious

const raceDetector = false
