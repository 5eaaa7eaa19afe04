package cuda

import (
	"hccsim/internal/ccmode"
	"hccsim/internal/gpu"
	"hccsim/internal/hbm"
	"hccsim/internal/pcie"
	"hccsim/internal/platform"
	"hccsim/internal/tdx"
	"hccsim/internal/uvm"
)

// Params holds the host-side (runtime + driver) latency constants. The
// calibration data lives in the platform profiles (internal/platform);
// this alias keeps the runtime's working name for the bundle.
type Params = platform.HostParams

// NVLinkParams describes the inter-GPU link when present. Link topology is
// platform data: profiles carry it and Config.NVLink delivers it; install
// it with Runtime.SetNVLink.
type NVLinkParams = platform.NVLinkParams

// Config assembles every layer's parameters for one simulated system.
type Config struct {
	// Mode names the protection mode (see ccmode.Names and ccmode.ByName:
	// "off", "tdx-h100", "tee-io-direct", "tee-io-bridge", each optionally
	// "+pipelined"). Empty resolves to "off".
	Mode string
	// Platform names the hardware profile the per-layer params were seeded
	// from (see platform.Names and platform.ByName). It is resolved and
	// normalized like Mode — empty means the default h100-tdx testbed — and
	// Normalize validates that the resolved Mode is valid on the platform.
	// Setting Platform does not re-seed the params; use PlatformConfig.
	Platform string `json:",omitempty"`
	TDX      tdx.Params
	PCIe     pcie.Params
	HBM      hbm.Params
	UVM      uvm.Params
	GPU      gpu.Params
	Host     Params
	// NVLink is the inter-GPU bridge of the platform, when present.
	NVLink NVLinkParams
}

// fromProfile copies a profile's calibration into a Config with no mode
// selected.
func fromProfile(p platform.Profile) Config {
	return Config{
		Platform: p.Name(),
		TDX:      p.TDX,
		PCIe:     p.PCIe,
		HBM:      p.HBM,
		UVM:      p.UVM,
		GPU:      p.GPU,
		Host:     p.Host,
		NVLink:   p.NVLink,
	}
}

// PlatformBase returns the named platform's system with no protection mode
// selected (which resolves to off). The platform name is resolved through
// platform.ByName and stored canonically.
func PlatformBase(platformName string) (Config, error) {
	p, err := platform.ByName(platformName)
	if err != nil {
		return Config{}, err
	}
	return fromProfile(p), nil
}

// PlatformConfig returns the named platform under the named protection
// mode — the cross-platform constructor. Both names are resolved eagerly
// (platform.ByName, ccmode.ByName; empty names are the default platform
// and "off") and the mode is validated against the platform's mode set, so
// an illegal pair fails here with the legal values in the error, never
// mid-run.
func PlatformConfig(platformName, mode string) (Config, error) {
	p, err := platform.ByName(platformName)
	if err != nil {
		return Config{}, err
	}
	cfg := fromProfile(p)
	cfg.Mode = mode
	return cfg.Normalize()
}

// NewConfig returns the paper's Table I system under the named protection
// mode — the mode-aware constructor, an alias for PlatformConfig on the
// default h100-tdx platform.
func NewConfig(mode string) (Config, error) {
	return PlatformConfig(platform.Default, mode)
}

// DefaultConfig returns the paper's Table I system with confidential
// computing on (the measured "tdx-h100" mode) or off — the on/off switch
// the paper's own figures compare.
func DefaultConfig(cc bool) Config {
	cfg := fromProfile(platform.MustByName(platform.Default))
	cfg.Mode = "off"
	if cc {
		cfg.Mode = "tdx-h100"
	}
	return cfg
}

// ResolveMode resolves the configuration's protection mode by name; the
// empty name resolves to "off".
func (c Config) ResolveMode() (ccmode.Mode, error) {
	if c.Mode == "" {
		return ccmode.Off{}, nil
	}
	return ccmode.ByName(c.Mode)
}

// ResolvePlatform resolves the configuration's platform profile; the empty
// name resolves to the default h100-tdx testbed.
func (c Config) ResolvePlatform() (platform.Profile, error) {
	return platform.ByName(c.Platform)
}

// Normalize resolves the protection mode and platform and writes both back
// canonically (Mode and Platform set to their canonical names), validating the
// mode against the platform's mode set — so that configurations meaning the
// same system hash and label identically, and an illegal mode×platform pair
// fails at resolve time with the legal values in the error.
func (c Config) Normalize() (Config, error) {
	m, err := c.ResolveMode()
	if err != nil {
		return Config{}, err
	}
	p, err := c.ResolvePlatform()
	if err != nil {
		return Config{}, err
	}
	if err := p.ValidateMode(m); err != nil {
		return Config{}, err
	}
	c.Mode = m.Name()
	c.Platform = p.Name()
	return c, nil
}
