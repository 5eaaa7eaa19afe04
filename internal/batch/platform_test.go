package batch

import (
	"strings"
	"testing"

	"hccsim/internal/cuda"
)

// TestPlatformKeyIdentity: the empty platform and its canonical name mean
// the same system, so they must share a cache key — otherwise every cached
// result splits in two when a sweep starts naming platforms.
func TestPlatformKeyIdentity(t *testing.T) {
	a := WorkloadJob("gemm", false, true)
	b := a
	b.Platform = "h100-tdx"
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("empty platform and h100-tdx hash differently: %s vs %s", ka, kb)
	}

	c := a
	c.Platform = "b300"
	d := a
	d.Platform = "b300-bridge"
	// tdx-h100 is illegal on a B300; give both the platform's mode.
	c.Mode, d.Mode = "tee-io-bridge", "tee-io-bridge"
	kc, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	kd, err := d.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc != kd {
		t.Errorf("alias b300 and canonical b300-bridge hash differently")
	}
	if kc == ka {
		t.Errorf("different platforms share a cache key")
	}
}

// TestGridPlatformsKeepsExplicitMode: a job that names its mode keeps it on
// every platform; the illegal pair then fails Validate up front rather than
// mid-sweep.
func TestGridPlatformsKeepsExplicitMode(t *testing.T) {
	j := WorkloadJob("gemm", false, false)
	j.Mode = "tdx-h100"
	out := GridPlatforms([]Job{j}, []string{"h100-tdx", "b300-bridge"})
	if len(out) != 2 {
		t.Fatalf("got %d jobs, want 2", len(out))
	}
	if out[0].Mode != "tdx-h100" || out[1].Mode != "tdx-h100" {
		t.Errorf("explicit mode rewritten: %q, %q", out[0].Mode, out[1].Mode)
	}
	if err := out[0].Validate(); err != nil {
		t.Errorf("tdx-h100 on h100-tdx should validate: %v", err)
	}
	err := out[1].Validate()
	if err == nil {
		t.Fatal("tdx-h100 on b300-bridge should fail validation")
	}
	if !strings.Contains(err.Error(), "tee-io-bridge") {
		t.Errorf("validation error %q does not list the platform's legal modes", err)
	}
}

// TestGridPlatformsDedup: aliased and canonical spellings of one platform
// collapse to one job (first occurrence wins), keeping sweep output
// byte-identical at any parallelism.
func TestGridPlatformsDedup(t *testing.T) {
	jobs := []Job{WorkloadJob("gemm", false, false)}
	out := GridPlatforms(jobs, []string{"h100-tdx", "default", "table1"})
	if len(out) != 1 {
		t.Fatalf("got %d jobs, want 1 after dedup", len(out))
	}
}

func TestLabelWithPlatform(t *testing.T) {
	j := WorkloadJob("gemm", false, false)
	j.Mode = "tee-io-bridge"
	j.Platform = "b300-bridge"
	if got := j.Label(); got != "gemm/tee-io-bridge@b300-bridge" {
		t.Errorf("Label() = %q", got)
	}
	j.Platform = ""
	if got := j.Label(); got != "gemm/tee-io-bridge" {
		t.Errorf("Label() without platform = %q", got)
	}
}

func TestParsePlatformAxis(t *testing.T) {
	ax, err := ParseAxis("hw.platform=h100-tdx, b300")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Param != PlatformAxis {
		t.Errorf("Param = %q", ax.Param)
	}
	if len(ax.Platforms) != 2 || ax.Platforms[0] != "h100-tdx" || ax.Platforms[1] != "b300-bridge" {
		t.Errorf("Platforms = %v, want canonical names", ax.Platforms)
	}

	if _, err := ParseAxis("hw.platform=h100-tdx,nonesuch"); err == nil {
		t.Error("axis accepted an unknown platform")
	}

	if _, err := ParseAxes([]string{"hw.platform=h100-tdx", "hw.platform=b300-bridge"}); err == nil {
		t.Error("duplicate hw.platform axis not rejected")
	}
}

func TestValidatePlatformRules(t *testing.T) {
	j := WorkloadJob("gemm", false, false)
	j.Platform = "nonesuch"
	if err := j.Validate(); err == nil {
		t.Error("unknown platform passed validation")
	}

	cfg := cuda.DefaultConfig(false)
	j = WorkloadJob("gemm", false, false)
	j.Platform = "b300-bridge"
	j.Config = &cfg
	err := j.Validate()
	if err == nil {
		t.Fatal("Platform plus explicit Config passed validation")
	}
	if !strings.Contains(err.Error(), "Platform") {
		t.Errorf("error %q does not explain the Platform/Config conflict", err)
	}

	f := FigureJob("fig8")
	f.Platform = "b300-bridge"
	if err := f.Validate(); err == nil {
		t.Error("figure job with a platform passed validation (figures fix their own configurations)")
	}
}

// TestPlatformEffectiveConfigSeedsProfile: the platform profile seeds the
// base params, mode and overrides apply on top.
func TestPlatformEffectiveConfigSeedsProfile(t *testing.T) {
	j := WorkloadJob("gemm", false, false, Override{Param: "PCIe.EffectiveGBps", Value: 10})
	j.Platform = "b300-bridge"
	j.Mode = "tee-io-bridge"
	cfg, err := j.EffectiveConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Platform != "b300-bridge" || cfg.Mode != "tee-io-bridge" {
		t.Errorf("resolved platform %q mode %q", cfg.Platform, cfg.Mode)
	}
	if cfg.GPU.SMs == cuda.DefaultConfig(false).GPU.SMs {
		t.Error("profile params not seeded (SMs match the default platform)")
	}
	if cfg.PCIe.EffectiveGBps != 10 {
		t.Errorf("override lost: PCIe %g", cfg.PCIe.EffectiveGBps)
	}
}
