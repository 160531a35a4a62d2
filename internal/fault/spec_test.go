package fault

import (
	"testing"

	"repro/internal/sweep"
)

func TestCampaignSpecConfig(t *testing.T) {
	spec := CampaignSpec{
		Protocols: []string{"rb", "rwb"},
		Classes:   []string{"bus-drop", "mem-bit-flip"},
		Seeds:     []uint64{1, 2},
		Trials:    3,
		Refs:      200,
		PEs:       2,
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Classes) != 2 || cfg.Classes[0] != BusDrop {
		t.Fatalf("classes = %v", cfg.Classes)
	}
	if cfg.Trials != 3 || cfg.Trial.Refs != 200 || cfg.Trial.PEs != 2 {
		t.Fatalf("trial shape not carried: %+v", cfg)
	}

	if _, err := (CampaignSpec{Classes: []string{"no-such-class"}}).Config(); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := (CampaignSpec{Protocols: []string{"no-such-protocol"}}).Config(); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := (CampaignSpec{PEs: 64}).Config(); err == nil {
		t.Fatal("PEs >= AddrRange accepted")
	}
	for _, bad := range []CampaignSpec{{Trials: -1}, {Refs: -5}, {PEs: -2}} {
		if _, err := bad.Config(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestConfigVersionSaltsTrialShape is the cache-soundness property: two
// campaigns whose cells would produce different tallies must never share
// job keys, even though the cell id and seed are identical.
func TestConfigVersionSaltsTrialShape(t *testing.T) {
	base := CampaignConfig{}
	same := CampaignConfig{Trials: 4} // 4 is the default: same shape
	if ConfigVersion(base) != ConfigVersion(same) {
		t.Fatal("explicit default changed the epoch")
	}
	variants := []CampaignConfig{
		{Trials: 8},
		func() CampaignConfig { c := CampaignConfig{}; c.Trial.Refs = 500; return c }(),
		func() CampaignConfig { c := CampaignConfig{}; c.Trial.PEs = 8; c.Trial.AddrRange = 128; return c }(),
	}
	seen := map[int]bool{ConfigVersion(base): true}
	for i, v := range variants {
		ver := ConfigVersion(v)
		if seen[ver] {
			t.Fatalf("variant %d collides with an earlier epoch (%d)", i, ver)
		}
		seen[ver] = true
	}
	// And the salt flows into the expanded specs' cache keys.
	a := jobKeys(base)
	b := jobKeys(CampaignConfig{Trials: 8})
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no jobs expanded")
	}
	for k := range a {
		if b[k] {
			t.Fatalf("trial-shape change left job key %s shared", k)
		}
	}
}

// jobKeys expands a campaign and collects its content-hash cache keys.
func jobKeys(c CampaignConfig) map[string]bool {
	keys := map[string]bool{}
	for _, j := range sweep.Expand(c.Specs()) {
		keys[j.Key] = true
	}
	return keys
}
