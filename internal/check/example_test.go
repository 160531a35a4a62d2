package check_test

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/coherence"
)

// ExampleRun explores the RB product machine for three caches, verifying
// the Section 4 configuration lemma at every reachable state.
func ExampleRun() {
	res, err := check.Run(coherence.New(coherence.KindRB), check.Options{
		Caches:    3,
		Invariant: check.RBLemma,
	})
	if err != nil {
		fmt.Println("violation:", err)
		return
	}
	fmt.Printf("consistent: %d states, %d transitions\n", res.States, res.Transitions)
	// Output:
	// consistent: 38 states, 525 transitions
}
