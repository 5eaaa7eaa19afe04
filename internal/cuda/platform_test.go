package cuda

import (
	"reflect"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
	"hccsim/internal/platform"
)

// TestExplicitDefaultPlatformByteIdentical is the refactor's core identity:
// naming the default platform explicitly must produce exactly the config the
// default-platform constructor builds, field for field — otherwise cache keys
// split and golden figures drift.
func TestExplicitDefaultPlatformByteIdentical(t *testing.T) {
	for _, mode := range append(ccmode.Names(), "tdx-h100+pipelined") {
		viaDefault, err := NewConfig(mode)
		if err != nil {
			t.Fatalf("NewConfig(%s): %v", mode, err)
		}
		viaPlatform, err := PlatformConfig("h100-tdx", mode)
		if err != nil {
			t.Fatalf("PlatformConfig(h100-tdx, %s): %v", mode, err)
		}
		if !reflect.DeepEqual(viaDefault, viaPlatform) {
			t.Errorf("mode %s: NewConfig and PlatformConfig(h100-tdx) differ:\n%+v\nvs\n%+v",
				mode, viaDefault, viaPlatform)
		}
	}
}

// TestDefaultConfigMatchesProfile pins the on/off constructor to the
// default profile's data under the off and tdx-h100 modes.
func TestDefaultConfigMatchesProfile(t *testing.T) {
	for cc, mode := range map[bool]string{false: "off", true: "tdx-h100"} {
		cfg := DefaultConfig(cc)
		if cfg.Mode != mode {
			t.Errorf("DefaultConfig(%v).Mode = %q, want %q", cc, cfg.Mode, mode)
		}
		if cfg.Platform != platform.Default {
			t.Errorf("DefaultConfig(%v).Platform = %q, want %q", cc, cfg.Platform, platform.Default)
		}
		p := platform.MustByName(platform.Default)
		if cfg.TDX != p.TDX || cfg.PCIe != p.PCIe || cfg.HBM != p.HBM ||
			cfg.UVM != p.UVM || cfg.GPU != p.GPU || cfg.Host != p.Host || cfg.NVLink != p.NVLink {
			t.Errorf("DefaultConfig(%v) params differ from the %s profile", cc, platform.Default)
		}
	}
}

func TestPlatformConfigRejectsIllegalPair(t *testing.T) {
	_, err := PlatformConfig("b300-bridge", "tdx-h100")
	if err == nil {
		t.Fatal("PlatformConfig accepted tdx-h100 on b300-bridge")
	}
	if !strings.Contains(err.Error(), "tee-io-bridge") {
		t.Errorf("error %q does not list the platform's legal modes", err)
	}
	if _, err := PlatformConfig("nonesuch", "off"); err == nil {
		t.Fatal("PlatformConfig accepted an unknown platform")
	}
	if _, err := PlatformConfig("h100-tdx", "nonesuch"); err == nil {
		t.Fatal("PlatformConfig accepted an unknown mode")
	}
}

func TestNormalizeCanonicalizesPlatform(t *testing.T) {
	cfg := DefaultConfig(false)
	cfg.Platform = "" // spell the default implicitly
	cfg.Mode = "TDX-H100"
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Platform != platform.Default || n.Mode != "tdx-h100" {
		t.Errorf("Normalize() = platform %q mode %q", n.Platform, n.Mode)
	}

	// Aliased spellings normalize to the same canonical config.
	a, err := PlatformBase("b300")
	if err != nil {
		t.Fatal(err)
	}
	if a.Platform != "b300-bridge" {
		t.Errorf("PlatformBase(b300).Platform = %q", a.Platform)
	}

	// Normalize rejects an illegal pair even when both names are valid.
	bad := a
	bad.Mode = "tdx-h100"
	if _, err := bad.Normalize(); err == nil {
		t.Error("Normalize accepted tdx-h100 on b300-bridge")
	}
}

// FuzzPlatformByName: platform.ByName never panics, and a name it accepts
// resolves to a profile whose canonical name resolves to the same profile.
func FuzzPlatformByName(f *testing.F) {
	for _, n := range platform.Names() {
		f.Add(n)
		f.Add(" " + strings.ToUpper(n) + " ")
	}
	for _, n := range []string{"", "default", "b300", "SEV-SNP", "a100", "h100-tdx+pipelined"} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := platform.ByName(name)
		if err != nil {
			return
		}
		again, err := platform.ByName(p.Name())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("ByName(%q) = %s, but ByName(%q) = %s, %v", name, p.Name(), p.Name(), again.Name(), err)
		}
	})
}

// FuzzConfigNormalize: Config.Normalize never panics on any pair of mode
// and platform names, and what it accepts is already normal — normalizing
// again changes nothing.
func FuzzConfigNormalize(f *testing.F) {
	for _, m := range append(ccmode.Names(), "", "tdx", "TEE-IO+pipelined", "cc") {
		for _, p := range append(platform.Names(), "", "b300", "a100") {
			f.Add(m, p)
		}
	}
	base := DefaultConfig(false)
	f.Fuzz(func(t *testing.T, mode, plat string) {
		cfg := base
		cfg.Mode, cfg.Platform = mode, plat
		n, err := cfg.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize(%q, %q) = (%q, %q), which normalizes to (%q, %q), %v",
				mode, plat, n.Mode, n.Platform, again.Mode, again.Platform, err)
		}
	})
}
