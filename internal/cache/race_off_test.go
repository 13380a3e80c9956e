//go:build !race

package cache

// raceDetectorEnabled reports whether the race detector is instrumenting
// this test binary. Alloc-count pins are meaningless under -race: the
// instrumentation itself allocates.
const raceDetectorEnabled = false
