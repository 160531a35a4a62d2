package chaos

import (
	"context"
	"testing"
)

// TestCampaignSmoke runs one cell per class, both process classes
// included, at default intensity: 2 workers, 24 requests from concurrent
// clients. The matrix must be byte-identical between -j1 and -j2 and
// across a same-seed rerun, every cell must have actually drawn faults,
// and no cell may break the contract or the oracle byte-identity.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots embedded fleets and runs real experiments")
	}
	cfg := Config{
		Classes:     Classes(),
		Intensities: []Intensity{Default},
		Seed:        1,
		Requests:    24,
		Workers:     2,
	}
	run := func(jobs int) (string, []Cell) {
		t.Helper()
		cells, err := Run(context.Background(), cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return Render(cells), cells
	}
	serial, cells := run(1)
	if parallel, _ := run(2); parallel != serial {
		t.Fatalf("-j2 matrix differs from -j1:\n--- j1 ---\n%s--- j2 ---\n%s", serial, parallel)
	}
	if rerun, _ := run(2); rerun != serial {
		t.Fatalf("same-seed rerun rendered a different matrix:\n--- first ---\n%s--- rerun ---\n%s", serial, rerun)
	}
	for _, c := range cells {
		if c.Failed() {
			t.Errorf("cell %s/%s failed:\n%s", c.Class, c.Intensity, Render([]Cell{c}))
		}
		if c.Injected == 0 {
			t.Errorf("cell %s/%s drew no faults; the test would be vacuous", c.Class, c.Intensity)
		}
	}
	t.Logf("matrix:\n%s", serial)
}
