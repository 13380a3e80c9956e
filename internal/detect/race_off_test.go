//go:build !race

package detect

// raceDetectorEnabled reports whether the race detector is instrumenting
// this test binary. Alloc-count bounds are meaningless under -race: the
// instrumentation itself allocates.
const raceDetectorEnabled = false
