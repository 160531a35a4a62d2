package main

import (
	"slices"
	"testing"

	"repro/internal/chaos"
)

// TestBuildConfig: the class and intensity lists resolve in the order
// given, empty lists mean every class at default intensity, and an
// unknown name is an error. The campaign itself is tested in
// internal/chaos (TestCampaignSmoke).
func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("", "", 7, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.Classes, chaos.Classes()) || !slices.Equal(cfg.Intensities, []chaos.Intensity{chaos.Default}) {
		t.Fatalf("defaults = %v x %v, want every class at default", cfg.Classes, cfg.Intensities)
	}
	if cfg.Seed != 7 || cfg.Requests != 48 || cfg.Workers != 3 {
		t.Fatalf("sizes not carried: %+v", cfg)
	}
	cfg, err = buildConfig(" burst-5xx,,conn-refuse", "high,low", 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.Classes, []chaos.Class{chaos.Burst5xx, chaos.ConnRefuse}) ||
		!slices.Equal(cfg.Intensities, []chaos.Intensity{chaos.High, chaos.Low}) {
		t.Fatalf("lists = %v x %v", cfg.Classes, cfg.Intensities)
	}
	for _, bad := range [][2]string{{"cosmic-ray", ""}, {"", "extreme"}} {
		if _, err := buildConfig(bad[0], bad[1], 1, 48, 3); err == nil {
			t.Errorf("buildConfig(%q, %q) accepted an unknown name", bad[0], bad[1])
		}
	}
}
