package machine_test

import (
	"fmt"
	"log"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Example runs the Figure 6-2 situation end to end: two TTS spinlocks
// contending under RB, with the consistency oracle on.
func Example() {
	a := workload.MustSpinlock(workload.SpinlockConfig{
		Lock: 64, Strategy: workload.StrategyTTS, Iterations: 3,
	})
	b := workload.MustSpinlock(workload.SpinlockConfig{
		Lock: 64, Strategy: workload.StrategyTTS, Iterations: 3,
	})
	m, err := machine.New(machine.Config{
		Protocol:         coherence.New(coherence.KindRB),
		CheckConsistency: true,
	}, []workload.Agent{a, b})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(100000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("acquisitions:", a.Acquisitions()+b.Acquisitions())
	fmt.Println("consistent:", m.Err() == nil)
	// Output:
	// acquisitions: 6
	// consistent: true
}

// ExampleSampler takes a utilization time series while a machine runs.
func ExampleSampler() {
	m := machine.MustNew(machine.Config{Protocol: coherence.New(coherence.KindNoCache)},
		[]workload.Agent{workload.NewHotspot(1, 100)})
	series, err := machine.NewSampler(m).UtilizationSeries(50, 100000)
	if err != nil {
		log.Fatal(err)
	}
	// Every reference hits the bus under nocache, so the windows are
	// nearly saturated (the first has a one-cycle startup bubble).
	fmt.Println("windows:", len(series), "last:", series[len(series)-1])
	// Output:
	// windows: 4 last: 1
}
