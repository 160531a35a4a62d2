//go:build !race

package workload

// raceEnabled reports whether the race detector is compiled in; the
// stream-identity golden's millions of references take 10x longer under
// it, so that test runs only without it.
const raceEnabled = false
