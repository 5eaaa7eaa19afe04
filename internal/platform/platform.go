// Package platform is the hardware-calibration registry: one named,
// self-describing Profile per modelled testbed, bundling every substrate
// layer's Params plus the set of protection modes the hardware can actually
// run. The paper's Table I machine (dual Xeon 6530 Gold + H100 NVL over
// PCIe 5.0 under TDX 1.5) is the "h100-tdx" profile and stays the default;
// the other profiles are calibrated from the follow-up literature (The
// Serialized Bridge for Blackwell B300 GPU-CC, hypercall studies for
// SEV-SNP, Grace-Hopper C2C projections).
//
// Layering: platform sits below cuda — cuda assembles a Config by copying a
// profile's params — and imports only the substrate packages (tdx, pcie,
// hbm, uvm, gpu) plus ccmode for mode-name validation. Calibration data
// therefore lives in exactly one place (profiles.go); the substrate
// packages define the knobs, profiles assign them values.
package platform

import (
	"fmt"
	"strings"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/gpu"
	"hccsim/internal/hbm"
	"hccsim/internal/pcie"
	"hccsim/internal/tdx"
	"hccsim/internal/uvm"
)

// Default is the canonical name of the paper's Table I testbed, used
// whenever no platform is named.
const Default = "h100-tdx"

// HostParams holds the host-side (runtime + driver) latency constants.
// Together with the substrate parameters these are the calibration knobs
// behind Figs. 4-12; the h100-tdx profile is tuned so the suite-level
// ratios land on the paper's observations (KLO x1.42, alloc x5.67, free
// x10.54, ...). cuda.Params aliases this type.
type HostParams struct {
	// --- kernel launch path (Fig. 8) ---

	// LaunchSW is the userspace runtime work per cudaLaunchKernel
	// (argument marshalling, stream state, pushbuffer build).
	LaunchSW time.Duration
	// LaunchPostBase/CC is deferred driver work after the launch API
	// returns (fence bookkeeping, freed-buffer reaping). It lands in the
	// inter-launch gap, i.e. it is LQT, not KLO.
	LaunchPostBase time.Duration
	LaunchPostCC   time.Duration
	// DoorbellWrite is the USERD doorbell store. The doorbell page is a
	// write-combined mapping the TD shares with the device, so it does NOT
	// trap — otherwise every launch would pay a full hypercall and KLO
	// would inflate far beyond the observed 1.42x.
	DoorbellWrite time.Duration
	// FenceInterval is how many launches pass between driver fence reads
	// that do go through MMIO (and therefore hypercall under CC).
	FenceInterval int
	// RingSlots is the per-stream in-flight launch window; a full ring
	// stalls the next launch (the stall surfaces as LQT).
	RingSlots int
	// CmdPacketBytes is the pushbuffer packet size encrypted per launch in
	// CC mode; LaunchEncSW is the per-launch cost of that encryption with a
	// warm cipher context (key schedule and IV chain reused across packets).
	CmdPacketBytes int64
	LaunchEncSW    time.Duration
	// ModuleBaseBytes is the default SASS module uploaded on a kernel's
	// first launch (KernelSpec.CodeBytes overrides).
	ModuleBaseBytes int64
	// ModuleMMIOs is the register traffic of a module load; ModuleSW is the
	// driver-side software cost (SASS patching, relocation) paid either way.
	ModuleMMIOs int
	ModuleSW    time.Duration
	// ContextInitSW and ContextInitMMIOs model first-launch context/channel
	// creation (the very expensive first launch in Fig. 12a).
	ContextInitSW    time.Duration
	ContextInitMMIOs int

	// --- copies ---

	// CopySW is the blocking memcpy API overhead; AsyncCopySW the cheaper
	// submission-only path.
	CopySW      time.Duration
	AsyncCopySW time.Duration

	// --- memory management (Fig. 6) ---

	MallocSW            time.Duration
	MallocMMIOs         int
	MallocPerMB         time.Duration // PTE/heap work per MiB, non-CC
	MallocPerMBCC       time.Duration // encrypted PTE updates + SEPT share
	HostAllocSW         time.Duration
	HostAllocMMIOs      int
	HostAllocPerMB      time.Duration // page pinning + IOMMU map
	HostAllocPerMBCC    time.Duration // UVM-backed shared registration
	FreeSW              time.Duration
	FreeMMIOs           int
	FreePerMB           time.Duration // unmap + TLB
	FreePerMBCC         time.Duration // scrub + SEPT removal + shootdowns
	ManagedAllocSW      time.Duration // cudaMallocManaged is lazy: cheap
	ManagedAllocMMIOs   int
	ManagedAllocPerMB   time.Duration
	ManagedAllocPerMBCC time.Duration
	// ManagedFreePerResMB applies per MiB that was device-resident at free
	// time (unmapping migrated pages is what makes UVM free expensive).
	ManagedFreePerResMB   time.Duration
	ManagedFreePerResMBCC time.Duration

	// --- misc ---

	SyncSW         time.Duration
	StreamCreateSW time.Duration
	// GraphCreatePerNode is capture/instantiation cost per node; graph
	// launch then submits the whole batch as one packet (Sec. VII-A).
	GraphCreateSW      time.Duration
	GraphCreatePerNode time.Duration
}

// NVLinkParams describes the inter-GPU link when present; link topology is
// platform data, not an ad-hoc accessor. cuda.NVLinkParams aliases this
// type.
type NVLinkParams struct {
	Enabled bool
	GBps    float64
	PerOp   time.Duration
}

// Profile is one named hardware platform: the full calibration of every
// simulator layer plus the protection modes the platform can run. Profiles
// are value types — callers copy the exported param bundles into a
// cuda.Config and cannot corrupt the registry through them.
type Profile struct {
	name        string
	description string
	// native is the canonical name of the platform's flagship CC mode —
	// what CC-on means on this hardware (off vs native is the headline
	// comparison of the cross-platform figures).
	native string
	// modes lists the canonical base-mode names valid on the platform; a
	// "+pipelined" suffix on any allowed CC mode is always accepted.
	modes []string

	// Per-layer calibration, copied verbatim into cuda.Config.
	TDX    tdx.Params
	PCIe   pcie.Params
	HBM    hbm.Params
	UVM    uvm.Params
	GPU    gpu.Params
	Host   HostParams
	NVLink NVLinkParams
}

// Name returns the canonical platform name.
func (p Profile) Name() string { return p.name }

// Description is a one-line account of the modelled hardware.
func (p Profile) Description() string { return p.description }

// NativeMode returns the canonical name of the platform's flagship
// confidential-computing mode.
func (p Profile) NativeMode() string { return p.native }

// Modes returns the canonical base-mode names valid on the platform, in
// registry order.
func (p Profile) Modes() []string { return append([]string(nil), p.modes...) }

// AllowsMode reports whether the named protection mode (any spelling
// ccmode.ByName accepts, including a "+pipelined" suffix) can run on the
// platform. Unknown mode names are simply not allowed.
func (p Profile) AllowsMode(mode string) bool {
	m, err := ccmode.ByName(mode)
	if err != nil {
		return false
	}
	return p.ValidateMode(m) == nil
}

// ValidateMode checks a resolved protection mode against the platform's
// mode set — the resolve-time guard behind cuda.Config.Normalize. The
// pipelined decorator is valid wherever its inner mode is.
func (p Profile) ValidateMode(m ccmode.Mode) error {
	base := strings.TrimSuffix(m.Name(), "+pipelined")
	for _, ok := range p.modes {
		if base == ok {
			return nil
		}
	}
	return fmt.Errorf("platform: %s does not support protection mode %q (valid on %s: %s)",
		p.name, m.Name(), p.name, strings.Join(p.modes, ", "))
}

// aliases maps accepted platform spellings to canonical names.
var aliases = map[string]string{
	"":         Default, // empty means "the paper's testbed"
	"default":  Default,
	"h100":     Default,
	"table1":   Default,
	"snp":      "h100-snp",
	"sev-snp":  "h100-snp",
	"h100-sev": "h100-snp",
	"b300":     "b300-bridge",
	"gb300":    "b300-bridge",
	"gh200":    "gh200-c2c",
	"grace":    "gh200-c2c",
}

// ByName resolves a platform name — canonical or alias, case-insensitive —
// to its profile. The empty name resolves to Default. Unknown names error
// with the full list of legal values.
func ByName(name string) (Profile, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	for _, p := range registry {
		if p.name == key {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("platform: unknown platform %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// MustByName is ByName for names known at compile time; it panics on an
// unknown name.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Names lists the canonical platform names in registry order (h100-tdx
// first).
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.name
	}
	return out
}

// Profiles returns every registered profile in registry order.
func Profiles() []Profile { return append([]Profile(nil), registry...) }
