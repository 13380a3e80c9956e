//go:build race

package detect

// raceDetectorEnabled: see race_off_test.go.
const raceDetectorEnabled = true
