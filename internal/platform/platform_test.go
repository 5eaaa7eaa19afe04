package platform

import (
	"strings"
	"testing"
	"time"

	"hccsim/internal/ccmode"
)

func TestByNameCanonicalAndAliases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", Default},
		{"h100-tdx", "h100-tdx"},
		{"default", "h100-tdx"},
		{"table1", "h100-tdx"},
		{"  H100-TDX ", "h100-tdx"},
		{"snp", "h100-snp"},
		{"sev-snp", "h100-snp"},
		{"b300", "b300-bridge"},
		{"GB300", "b300-bridge"},
		{"gh200", "gh200-c2c"},
		{"grace", "gh200-c2c"},
	}
	for _, c := range cases {
		p, err := ByName(c.in)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.in, err)
		}
		if p.Name() != c.want {
			t.Errorf("ByName(%q) = %s, want %s", c.in, p.Name(), c.want)
		}
	}
}

func TestByNameUnknownListsLegalValues(t *testing.T) {
	_, err := ByName("h200-mystery")
	if err == nil {
		t.Fatal("ByName accepted an unknown platform")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list legal platform %s", err, name)
		}
	}
}

func TestNamesMatchesRegistry(t *testing.T) {
	names := Names()
	profs := Profiles()
	if len(names) != len(profs) || len(names) < 4 {
		t.Fatalf("Names()=%v, Profiles() has %d entries", names, len(profs))
	}
	if names[0] != Default {
		t.Errorf("Names()[0] = %s, want the default platform first", names[0])
	}
	for i, p := range profs {
		if p.Name() != names[i] {
			t.Errorf("Profiles()[%d] = %s, Names()[%d] = %s", i, p.Name(), i, names[i])
		}
		if !p.AllowsMode(p.NativeMode()) {
			t.Errorf("%s does not allow its own native mode %s", p.Name(), p.NativeMode())
		}
		if !p.AllowsMode("off") {
			t.Errorf("%s does not allow off — every platform must have an off baseline", p.Name())
		}
	}
}

func TestAllowsModeMatrix(t *testing.T) {
	cases := []struct {
		platform, mode string
		want           bool
	}{
		// The paper's testbed runs everything: tee-io-* are its projections.
		{"h100-tdx", "off", true},
		{"h100-tdx", "tdx-h100", true},
		{"h100-tdx", "tee-io-direct", true},
		{"h100-tdx", "tee-io-bridge", true},
		{"h100-tdx", "tdx-h100+pipelined", true},
		// SEV-SNP host: bounce-buffer CC only, no TEE-IO silicon.
		{"h100-snp", "tdx-h100", true},
		{"h100-snp", "tee-io-direct", false},
		{"h100-snp", "tee-io-bridge", false},
		// B300: the serialized bridge IS the protection; no bounce buffers.
		{"b300-bridge", "tee-io-bridge", true},
		{"b300-bridge", "tee-io-bridge+pipelined", true},
		{"b300-bridge", "tdx-h100", false},
		{"b300-bridge", "tee-io-direct", false},
		// GH200: coherent direct path; no serialized bridge mode.
		{"gh200-c2c", "tee-io-direct", true},
		{"gh200-c2c", "tdx-h100", false},
		{"gh200-c2c", "tee-io-bridge", false},
		// Unknown mode names are simply not allowed.
		{"h100-tdx", "quantum", false},
	}
	for _, c := range cases {
		p := MustByName(c.platform)
		if got := p.AllowsMode(c.mode); got != c.want {
			t.Errorf("%s.AllowsMode(%s) = %v, want %v", c.platform, c.mode, got, c.want)
		}
	}
}

func TestValidateModeErrorListsAllowedModes(t *testing.T) {
	p := MustByName("b300-bridge")
	m, err := ccmode.ByName("tdx-h100")
	if err != nil {
		t.Fatal(err)
	}
	verr := p.ValidateMode(m)
	if verr == nil {
		t.Fatal("b300-bridge accepted tdx-h100")
	}
	for _, want := range []string{"b300-bridge", "tdx-h100", "tee-io-bridge", "off"} {
		if !strings.Contains(verr.Error(), want) {
			t.Errorf("error %q does not mention %s", verr, want)
		}
	}
}

func TestModesReturnsCopy(t *testing.T) {
	p := MustByName(Default)
	modes := p.Modes()
	modes[0] = "clobbered"
	if p.Modes()[0] == "clobbered" {
		t.Error("Modes() exposes the profile's internal slice")
	}
}

// TestH100TDXTableIValues pins the shipped Table I calibration: the
// h100-tdx profile must stay byte-identical to the pre-registry defaults or
// every golden figure drifts. Spot checks cover each substrate bundle.
func TestH100TDXTableIValues(t *testing.T) {
	p := MustByName("h100-tdx")
	if p.NativeMode() != "tdx-h100" {
		t.Errorf("native mode = %s, want tdx-h100", p.NativeMode())
	}
	checks := []struct {
		name string
		got  interface{}
		want interface{}
	}{
		{"TDX.VMExit", p.TDX.VMExit, 2400 * time.Nanosecond},
		{"TDX.Hypercall", p.TDX.Hypercall, 13700 * time.Nanosecond},
		{"TDX.HostMemcpyGBps", p.TDX.HostMemcpyGBps, 11.5},
		{"TDX.BounceBufBytes", p.TDX.BounceBufBytes, int64(256 << 20)},
		{"PCIe.EffectiveGBps", p.PCIe.EffectiveGBps, 52.0},
		{"HBM.CapacityBytes", p.HBM.CapacityBytes, int64(94 << 30)}, // H100 NVL: 94 GiB
		{"HBM.BandwidthGBps", p.HBM.BandwidthGBps, 3900.0},
		{"GPU.SMs", p.GPU.SMs, 132},
		{"UVM.PageBytes", p.UVM.PageBytes, int64(64 << 10)},
		{"Host.FenceInterval", p.Host.FenceInterval, 48},
		{"NVLink.GBps", p.NVLink.GBps, 450.0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if !p.NVLink.Enabled {
		t.Error("h100-tdx NVLink should be enabled")
	}
}

// TestProfileCapacitiesSane checks every profile carries a usable memory
// system (the assertions that lived in the hbm package before calibration
// moved here).
func TestProfileCapacitiesSane(t *testing.T) {
	for _, p := range Profiles() {
		if p.HBM.CapacityBytes < 16<<30 {
			t.Errorf("%s: HBM capacity %d < 16 GiB", p.Name(), p.HBM.CapacityBytes)
		}
		if p.HBM.AlignBytes <= 0 || p.HBM.CapacityBytes%p.HBM.AlignBytes != 0 {
			t.Errorf("%s: capacity %d not a multiple of align %d",
				p.Name(), p.HBM.CapacityBytes, p.HBM.AlignBytes)
		}
		if p.HBM.BandwidthGBps <= 0 || p.PCIe.EffectiveGBps <= 0 {
			t.Errorf("%s: non-positive bandwidth", p.Name())
		}
		if p.UVM.PageBytes <= 0 {
			t.Errorf("%s: non-positive UVM page size", p.Name())
		}
	}
}

// TestB300BridgeShape pins the b300-bridge signature the registry exists to
// model: GPU-local work at full rate (no per-command CC auth tax) while
// every transfer squeezes through a serialized encrypted bridge slower than
// the raw link.
func TestB300BridgeShape(t *testing.T) {
	b := MustByName("b300-bridge")
	if b.GPU.CmdAuthCC != 0 {
		t.Errorf("b300-bridge CmdAuthCC = %v, want 0 (command auth is in the bridge, not the CP)", b.GPU.CmdAuthCC)
	}
	if b.TDX.BridgeGBps >= b.PCIe.EffectiveGBps {
		t.Errorf("bridge %g GB/s not slower than link %g GB/s — the serialized bridge must derate",
			b.TDX.BridgeGBps, b.PCIe.EffectiveGBps)
	}
	h := MustByName(Default)
	if b.GPU.SMs <= h.GPU.SMs || b.HBM.CapacityBytes <= h.HBM.CapacityBytes {
		t.Error("b300-bridge should be a bigger GPU than the H100 testbed")
	}
}
