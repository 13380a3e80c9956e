//go:build race

package cache

// raceDetectorEnabled: see race_off_test.go.
const raceDetectorEnabled = true
