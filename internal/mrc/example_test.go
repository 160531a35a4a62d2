package mrc_test

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mrc"
)

// ExampleProfiler computes the exact miss curve of a tiny looped trace in
// one pass: references cycle through 4 addresses, so any cache of 4 or
// more lines only takes the 4 cold misses.
func ExampleProfiler() {
	p := mrc.New()
	for i := 0; i < 40; i++ {
		p.Touch(bus.Addr(i % 4))
	}
	for _, pt := range p.Curve([]int{2, 4}) {
		fmt.Printf("%d lines: %d misses\n", pt.Lines, pt.Misses)
	}
	// Output:
	// 2 lines: 40 misses
	// 4 lines: 4 misses
}
