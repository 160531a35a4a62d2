package main

import (
	"context"
	"testing"

	"repro/internal/chaos"
)

// TestCampaignSmoke runs 2 workers under the two purely transport-level
// classes at default intensity, a short sequential run per cell. The
// matrix must be byte-identical between -j1 and -j2 and across a
// same-seed rerun, every cell must have actually drawn faults, and no
// cell may break the contract or the oracle byte-identity. Process
// classes are pinned by the cluster package's own tests; keeping this to
// transport classes bounds its wall time by work, not by pause windows.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots embedded fleets and runs real experiments")
	}
	cfg := config{
		classes:     []chaos.Class{chaos.ConnRefuse, chaos.Truncate},
		intensities: []chaos.Intensity{chaos.Default},
		seed:        1,
		requests:    24,
		workers:     2,
	}
	run := func(jobs int) (string, []cellResult) {
		t.Helper()
		res, err := runCampaign(context.Background(), cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return renderMatrix(res), res
	}
	serial, cells := run(1)
	if parallel, _ := run(2); parallel != serial {
		t.Fatalf("-j2 matrix differs from -j1:\n--- j1 ---\n%s--- j2 ---\n%s", serial, parallel)
	}
	if rerun, _ := run(2); rerun != serial {
		t.Fatalf("same-seed rerun rendered a different matrix:\n--- first ---\n%s--- rerun ---\n%s", serial, rerun)
	}
	for _, c := range cells {
		if c.outcome() == outcomeFailed {
			t.Errorf("cell %s/%s failed:\n%s", c.class, c.intensity, renderMatrix([]cellResult{c}))
		}
		if c.injected == 0 {
			t.Errorf("cell %s/%s drew no faults; the test would be vacuous", c.class, c.intensity)
		}
	}
}
