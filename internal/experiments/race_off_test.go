//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// scale-10 machine oracle takes minutes under it, so it runs only without.
const raceEnabled = false
