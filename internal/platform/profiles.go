package platform

import (
	"time"

	"hccsim/internal/gpu"
	"hccsim/internal/hbm"
	"hccsim/internal/pcie"
	"hccsim/internal/swcrypto"
	"hccsim/internal/tdx"
	"hccsim/internal/uvm"
)

// registry holds every profile in display order; h100-tdx leads because it
// is the default and the calibration baseline every golden figure is pinned
// to. Adding a platform means appending one Profile literal here (and a row
// to the DESIGN.md §13 mode-availability matrix) — nothing else.
var registry = []Profile{h100TDX(), h100SNP(), b300Bridge(), gh200C2C()}

// h100TDX is the paper's Table I testbed: dual Xeon 6530 Gold @ 2.1 GHz
// under TDX 1.5, H100 NVL passed through over PCIe 5.0 x16. The values are
// the pre-platform-layer DefaultParams of every substrate package, moved
// here verbatim — golden figures assert byte-identity against them. The
// tee-io-* modes are allowed as the paper's Sec. VIII hardware projections
// (TDX Connect on the same machine), not shipping hardware.
func h100TDX() Profile {
	return Profile{
		name:   "h100-tdx",
		native: "tdx-h100",
		modes:  []string{"off", "tdx-h100", "tee-io-direct", "tee-io-bridge"},
		TDX: tdx.Params{
			VMExit:         2400 * time.Nanosecond,
			Hypercall:      13700 * time.Nanosecond, // ~+470% over a plain exit
			MMIODirect:     380 * time.Nanosecond,
			SEPTPerPage:    1900 * time.Nanosecond,
			ConvertPerPage: 2600 * time.Nanosecond,
			ScrubPerPage:   950 * time.Nanosecond,
			DMAMapBase:     1200 * time.Nanosecond,
			HostMemcpyGBps: 11.5,
			BounceBufBytes: 256 << 20,
			CryptoCPU:      swcrypto.IntelEMR,
			CryptoAlg:      swcrypto.AES128GCM,
			CryptoWorkers:  1,
			IDEPerTLP:      250 * time.Nanosecond,
			BridgeGBps:     26.0,
		},
		PCIe: pcie.Params{
			EffectiveGBps:      52.0,
			TransactionLatency: 1800 * time.Nanosecond,
			SPDMSession:        180 * time.Millisecond,
		},
		HBM: hbm.Params{CapacityBytes: 94 << 30, BandwidthGBps: 3900, AlignBytes: 64 << 10},
		UVM: uvm.Params{
			PageBytes:         64 << 10,
			FaultService:      20 * time.Microsecond,
			BatchPages:        48, // 3 MiB with the density prefetcher
			BatchPagesCC:      1,  // encrypted paging defeats coalescing entirely
			CCFaultHypercalls: 4,
			RandomPenalty:     4,
		},
		GPU: gpu.Params{
			SMs:                  132,
			ThreadsPerSM:         2048,
			PeakFP32TFLOPs:       60,
			TensorTFLOPs:         780,
			DispatchBase:         1900 * time.Nanosecond,
			CmdAuthCC:            3600 * time.Nanosecond,
			KernelFixedOverhead:  1900 * time.Nanosecond,
			BlitGBps:             1300,
			MaxConcurrentKernels: 64,
			ChunkBytes:           4 << 20,
		},
		Host: h100Host(),
		// NVLink 4 bridge (900 GB/s bidirectional, ~450 GB/s per direction).
		NVLink: NVLinkParams{Enabled: true, GBps: 450, PerOp: 2 * time.Microsecond},
	}
}

// h100Host returns the Table I host-side runtime/driver constants, shared
// by every profile that keeps the H100 + stock-driver software stack.
func h100Host() HostParams {
	return HostParams{
		LaunchSW:         8000 * time.Nanosecond,
		LaunchPostBase:   600 * time.Nanosecond,
		LaunchPostCC:     1050 * time.Nanosecond,
		DoorbellWrite:    120 * time.Nanosecond,
		FenceInterval:    48,
		RingSlots:        64,
		CmdPacketBytes:   256,
		LaunchEncSW:      450 * time.Nanosecond,
		ModuleBaseBytes:  256 << 10,
		ModuleMMIOs:      2,
		ModuleSW:         40 * time.Microsecond,
		ContextInitSW:    180 * time.Microsecond,
		ContextInitMMIOs: 8,

		CopySW:      3500 * time.Nanosecond,
		AsyncCopySW: 1700 * time.Nanosecond,

		MallocSW:              38 * time.Microsecond,
		MallocMMIOs:           12,
		MallocPerMB:           250 * time.Nanosecond,
		MallocPerMBCC:         720 * time.Nanosecond,
		HostAllocSW:           25 * time.Microsecond,
		HostAllocMMIOs:        10,
		HostAllocPerMB:        12 * time.Microsecond,
		HostAllocPerMBCC:      70 * time.Microsecond,
		FreeSW:                20 * time.Microsecond,
		FreeMMIOs:             6,
		FreePerMB:             400 * time.Nanosecond,
		FreePerMBCC:           3800 * time.Nanosecond,
		ManagedAllocSW:        16 * time.Microsecond,
		ManagedAllocMMIOs:     2,
		ManagedAllocPerMB:     60 * time.Nanosecond,
		ManagedAllocPerMBCC:   500 * time.Nanosecond,
		ManagedFreePerResMB:   2600 * time.Nanosecond,
		ManagedFreePerResMBCC: 30 * time.Microsecond,

		SyncSW:             1400 * time.Nanosecond,
		StreamCreateSW:     9 * time.Microsecond,
		GraphCreateSW:      30 * time.Microsecond,
		GraphCreatePerNode: 2 * time.Microsecond,
	}
}

// h100SNP swaps the CPU TEE for an AMD SEV-SNP guest (EPYC Genoa class) in
// front of the same H100: guest exits go through the GHCB protocol
// (VMGEXIT), which hypercall studies measure cheaper than TDX's SEAM
// transitions, while RMP checks make page-state changes (PVALIDATE +
// RMPUPDATE) a little dearer than TDX SEPT acceptance. No TEE-IO: the
// platform runs only the bounce-buffer GPU-CC mode.
func h100SNP() Profile {
	p := h100TDX()
	p.name = "h100-snp"
	p.native = "tdx-h100"
	p.modes = []string{"off", "tdx-h100"}
	p.TDX.Hypercall = 9200 * time.Nanosecond   // VMGEXIT round trip
	p.TDX.SEPTPerPage = 2300 * time.Nanosecond // PVALIDATE + RMPUPDATE
	p.TDX.ConvertPerPage = 2900 * time.Nanosecond
	p.TDX.ScrubPerPage = 1100 * time.Nanosecond
	return p
}

// b300Bridge is a Blackwell B300 with native GPU-CC, calibrated from The
// Serialized Bridge: GPU-local work (kernels, HBM, device allocs) runs at
// full rate — command authentication is wire-speed hardware, so CmdAuthCC
// is zero — while every CPU-GPU transfer crosses one serialized encrypted
// bridge engine that cannot overlap H2D with D2H and reaches roughly half
// the full-duplex PCIe 6.0 rate. There is no bounce-buffer mode: protection
// is tee-io-bridge or off.
func b300Bridge() Profile {
	p := h100TDX()
	p.name = "b300-bridge"
	p.native = "tee-io-bridge"
	p.modes = []string{"off", "tee-io-bridge"}
	p.GPU = gpu.Params{
		SMs:                  148,
		ThreadsPerSM:         2048,
		PeakFP32TFLOPs:       80,
		TensorTFLOPs:         2250,
		DispatchBase:         1900 * time.Nanosecond,
		CmdAuthCC:            0, // hardware packet auth at line rate
		KernelFixedOverhead:  1900 * time.Nanosecond,
		BlitGBps:             2600,
		MaxConcurrentKernels: 64,
		ChunkBytes:           4 << 20,
	}
	p.HBM = hbm.Params{CapacityBytes: 288 << 30, BandwidthGBps: 8000, AlignBytes: 64 << 10}
	p.PCIe = pcie.Params{
		EffectiveGBps:      104.0,
		TransactionLatency: 1500 * time.Nanosecond,
		SPDMSession:        150 * time.Millisecond,
	}
	p.TDX.IDEPerTLP = 180 * time.Nanosecond
	// The serialized bridge runs at half the per-direction link rate: both
	// directions share one engine, so full-duplex traffic degrades further.
	p.TDX.BridgeGBps = 52.0
	p.NVLink = NVLinkParams{Enabled: true, GBps: 900, PerOp: 1500 * time.Nanosecond}
	return p
}

// gh200C2C is a Grace-Hopper GH200 superchip: the CPU TEE is an Arm
// CCA-style realm whose exits are cheaper than SEAM transitions, and the
// GPU hangs off the 900 GB/s NVLink-C2C fabric (modelled as the "PCIe"
// link at 450 GB/s per direction with sub-microsecond setup). The GPU is a
// trusted device behind hardware IDE, so protection is tee-io-direct or
// off; there is no bounce-buffer path and no second GPU.
func gh200C2C() Profile {
	p := h100TDX()
	p.name = "gh200-c2c"
	p.native = "tee-io-direct"
	p.modes = []string{"off", "tee-io-direct"}
	p.TDX.VMExit = 1800 * time.Nanosecond
	p.TDX.Hypercall = 7400 * time.Nanosecond
	p.TDX.MMIODirect = 320 * time.Nanosecond
	p.TDX.SEPTPerPage = 1600 * time.Nanosecond
	p.TDX.ConvertPerPage = 2200 * time.Nanosecond
	p.TDX.ScrubPerPage = 900 * time.Nanosecond
	p.TDX.DMAMapBase = 900 * time.Nanosecond
	p.TDX.HostMemcpyGBps = 38.0 // Grace LPDDR5X streaming rate
	p.TDX.IDEPerTLP = 120 * time.Nanosecond
	p.TDX.BridgeGBps = 225.0 // unused (no bridge mode); half the C2C rate
	p.PCIe = pcie.Params{
		EffectiveGBps:      450.0,
		TransactionLatency: 600 * time.Nanosecond,
		SPDMSession:        120 * time.Millisecond,
	}
	p.HBM = hbm.Params{CapacityBytes: 96 << 30, BandwidthGBps: 4000, AlignBytes: 64 << 10}
	p.UVM.FaultService = 15 * time.Microsecond
	p.NVLink = NVLinkParams{} // single superchip module, no peer bridge
	return p
}
