//go:build !race

package machine

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so the zero-alloc regression only asserts
// without it.
const raceEnabled = false
