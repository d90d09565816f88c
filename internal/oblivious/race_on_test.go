//go:build race

package oblivious

// raceDetector reports that the test binary was built with -race, where the
// oracle suite's serial reference solves run about ten times slower.
const raceDetector = true
