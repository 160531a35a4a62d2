// Package ignorescope is a lint test fixture for analyzer-scoped
// suppression: a "//lint:ignore phaseaudit reason" directive waives only
// the phaseaudit finding on its line — the determinism finding on the same
// line must still be reported — while the legacy unscoped form keeps
// suppressing everything.
package ignorescope

import "time"

// Core is a miniature phase-scoped structure.
type Core struct {
	//phase:bus
	stamp int64
}

// CPUStep runs in the CPU phase yet stamps the bus-owned field with the
// wall clock: one line, two findings. The scoped directive waives the
// phase violation only.
//
//phase:cpu
func (c *Core) CPUStep() {
	//lint:ignore phaseaudit seeded fixture: a scoped waiver stays scoped
	c.stamp = time.Now().UnixNano() // phaseaudit suppressed, determinism reported
}

// LegacyWaiver uses the pre-scoping syntax (first word is not an
// analyzer name): both findings on the line are suppressed.
//
//phase:cpu
func (c *Core) LegacyWaiver() {
	//lint:ignore reviewed-stamp fixture keeps the legacy form working
	c.stamp = time.Now().UnixNano()
}
