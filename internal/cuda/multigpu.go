package cuda

import (
	"fmt"
	"time"

	"hccsim/internal/gpu"
	"hccsim/internal/hbm"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/units"
	"hccsim/internal/uvm"
)

// Multi-GPU support: secondary devices (each behind its own PCIe link, as
// on the paper's testbed where one H100 hangs off each socket) and peer
// transfers between them. Under confidential computing, PCIe peer-to-peer
// is impossible — IOMMU isolation forces peer traffic to stage through the
// TD, paying decryption AND re-encryption — unless the GPUs share a
// protected NVLink, in which case both devices sit inside the attested TCB
// and transfers run at NVLink rate regardless of CC. This is the multi-GPU
// metadata-management territory of Na et al. (HPCA'24) that the paper's
// related-work section points to.

// secondaryDevice is one extra GPU: its own link and memory, sharing the
// platform (and therefore the crypto worker and bounce pool — both live on
// the host CPU).
type secondaryDevice struct {
	dev  *gpu.Device
	link *pcie.Link
}

// AddDevice attaches another GPU to the runtime and returns its device id
// (device 0 is the primary). Kernels still target device 0; secondary
// devices participate in allocations and peer transfers. The secondary
// device's UVM manager reuses the runtime's configured UVM params — same
// platform, same paging calibration.
func (rt *Runtime) AddDevice(pcieParams pcie.Params, hbmParams hbm.Params, gpuParams gpu.Params) int {
	link := pcie.NewLink(rt.eng, pcieParams)
	mem := hbm.NewAllocator(hbmParams)
	mgr := uvm.NewManager(rt.eng, rt.pl, link, rt.uvmParams)
	dev := gpu.New(rt.eng, rt.pl, link, mem, mgr, gpuParams)
	rt.secondary = append(rt.secondary, secondaryDevice{dev: dev, link: link})
	return len(rt.secondary) // ids 1..n
}

// SetNVLink installs (or removes) the inter-GPU bridge.
func (rt *Runtime) SetNVLink(nv NVLinkParams) { rt.nvlink = nv }

// deviceByID resolves a device id (0 = primary).
func (rt *Runtime) deviceByID(id int) (*gpu.Device, *pcie.Link, error) {
	if id == 0 {
		return rt.dev, rt.link, nil
	}
	if id < 1 || id > len(rt.secondary) {
		return nil, nil, fmt.Errorf("cuda: no device %d (have %d)", id, 1+len(rt.secondary))
	}
	s := rt.secondary[id-1]
	return s.dev, s.link, nil
}

// Devices returns the number of GPUs attached.
func (rt *Runtime) Devices() int { return 1 + len(rt.secondary) }

// MallocOn allocates device memory on a specific GPU. It panics on an
// unknown device ID or when that GPU's memory is exhausted, mirroring
// Malloc's fatal-error contract.
func (c *Context) MallocOn(devID int, label string, size int64) *Buffer {
	c.ensureInit()
	rt := c.rt
	dev, _, err := rt.deviceByID(devID)
	if err != nil {
		panic(err.Error())
	}
	start := c.p.Now()
	c.p.Sleep(rt.params.MallocSW)
	c.mmio(rt.params.MallocMMIOs)
	if rt.mode.PrivateAllocs() {
		c.p.Sleep(perMB(rt.params.MallocPerMBCC, size))
		rt.pl.AcceptPrivate(c.p, min(size/64, 128<<10))
	} else {
		c.p.Sleep(perMB(rt.params.MallocPerMB, size))
	}
	off, err := dev.Mem().Alloc(size)
	if err != nil {
		panic("cuda: " + err.Error())
	}
	b := &Buffer{ctx: c, kind: DeviceMem, size: size, devOff: off, devID: devID, label: label}
	c.record(trace.KindAlloc, "cudaMalloc", start, size, false)
	return b
}

// MemcpyPeer copies between device buffers on different GPUs
// (cudaMemcpyPeer). Over NVLink the transfer is direct and CC-neutral (the
// bridge is inside the attested TCB). Without NVLink it is routed through
// host memory: D2H on the source link, then H2D on the destination link —
// and under CC each leg pays the full bounce-buffer + software-crypto tax,
// so the data is decrypted and re-encrypted on the CPU. It panics — as the
// modelled call's sticky errors — on non-device or freed buffers, same-
// device pairs, overflowing sizes, and unknown device IDs.
func (c *Context) MemcpyPeer(dst, src *Buffer, bytes int64) {
	dst.checkLive("MemcpyPeer dst")
	src.checkLive("MemcpyPeer src")
	if dst.kind != DeviceMem || src.kind != DeviceMem {
		panic("cuda: MemcpyPeer requires device buffers")
	}
	if dst.devID == src.devID {
		panic("cuda: MemcpyPeer between buffers on the same device; use Memcpy")
	}
	if bytes <= 0 || bytes > dst.size || bytes > src.size {
		panic(fmt.Sprintf("cuda: MemcpyPeer of %d bytes overflows buffers", bytes))
	}
	rt := c.rt
	srcDev, _, err := rt.deviceByID(src.devID)
	if err != nil {
		panic(err.Error())
	}
	dstDev, _, err := rt.deviceByID(dst.devID)
	if err != nil {
		panic(err.Error())
	}
	start := c.p.Now()
	c.p.Sleep(rt.params.CopySW)
	rt.pl.MMIO(c.p)

	if rt.nvlink.Enabled {
		c.p.Sleep(rt.nvlink.PerOp + units.StreamDuration(bytes, rt.nvlink.GBps))
		c.record(trace.KindMemcpyD2D, "cudaMemcpyPeer[nvlink]", start, bytes, false)
		return
	}
	// Host-staged: two full PCIe legs, each on its own link; under CC the
	// platform decrypts the D2H leg and re-encrypts the H2D leg.
	srcDev.TransferHD(c.p, pcie.D2H, bytes, true)
	dstDev.TransferHD(c.p, pcie.H2D, bytes, true)
	c.record(trace.KindMemcpyD2D, "cudaMemcpyPeer[host-staged]", start, bytes, rt.mode.CC())
}

// waitFor lets the sim clock advance in host code paths that need it.
func (c *Context) waitFor(d time.Duration) { c.p.Sleep(d) }

var _ = sim.Time(0)
