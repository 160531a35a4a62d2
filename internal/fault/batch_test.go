package fault

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestInjectorStateDoesNotLeakAcrossReset is the recycling safety
// contract: after a fault trial perturbs a machine — bus injector armed,
// write interceptor installed, memory words corrupted, cache lines
// invalidated or staled — a generation reset must hand back a machine
// whose fault-free reference run is indistinguishable from a fresh one.
func TestInjectorStateDoesNotLeakAcrossReset(t *testing.T) {
	cfg := TrialConfig{}.withDefaults()
	const seed = 7
	fresh, err := cfg.ReferenceIn(nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	arena := batch.New()
	for _, class := range Classes() {
		// Dirty the arena's machine with a fault trial of this class...
		trialRNG := workload.NewRNG(seed ^ 0xfa17fa17fa17fa17)
		res, err := RunTrialIn(arena, cfg, fresh, class, seed, trialRNG.Uint64())
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		// ...then demand a clean reference from the same recycled machine.
		// ReferenceIn itself fails if any oracle trips, so a leaked
		// injector or interceptor surfaces as an error, and leaked data
		// corruption as a cycle/write/image mismatch.
		after, err := cfg.ReferenceIn(arena, seed)
		if err != nil {
			t.Fatalf("%v (trial outcome %v, %s): reference after reset: %v",
				class, res.Outcome, res.Detail, err)
		}
		if after.Cycles != fresh.Cycles || after.Writes != fresh.Writes {
			t.Errorf("%v: reference after reset ran %d cycles/%d writes, fresh %d/%d",
				class, after.Cycles, after.Writes, fresh.Cycles, fresh.Writes)
		}
		if addr, differs := imagesDiff(after.Image, fresh.Image); differs {
			t.Errorf("%v: reference image after reset diverges at addr %d (got %d, fresh %d)",
				class, addr, after.Image[addr], fresh.Image[addr])
		}
	}
	if arena.Reuses() == 0 {
		t.Fatal("arena never recycled a machine — the test exercised nothing")
	}
}

// TestBatchCellMatchesUnbatched pins the campaign-level identity: a cell
// run through the batch arena tallies and renders byte-identically to the
// fresh-machine path, across protocols, classes, and seeds sharing one
// arena (a stronger mix than any single fused group sees).
func TestBatchCellMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaign cells")
	}
	cfg := CampaignConfig{
		Protocols: []string{"rb", "rwb"},
		Classes:   []Class{BusDrop, MemBitFlip, CacheStale, MemLostWrite},
		Seeds:     []uint64{1, 2},
		Trials:    2,
		Trial:     TrialConfig{Refs: 200},
	}
	plain := NewCellRunner(cfg)
	batched := NewBatchCellRunner(cfg)
	arena := batch.New()
	var specs []sweep.JobSpec
	for _, s := range cfg.Specs() {
		for _, j := range sweep.Expand([]sweep.Spec{s}) {
			specs = append(specs, j.Spec)
		}
	}
	for _, spec := range specs {
		want, err := plain(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batched(spec, arena)
		if err != nil {
			t.Fatal(err)
		}
		if got.Render("plain") != want.Render("plain") {
			t.Errorf("%s seed %d: batched cell differs from unbatched:\nbatched:\n%s\nunbatched:\n%s",
				spec.Experiment, spec.Seed, got.Render("plain"), want.Render("plain"))
		}
	}
	if arena.Reuses() == 0 {
		t.Fatal("arena never recycled a machine")
	}
}
