package tdx

import (
	"hccsim/internal/ccmode"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
)

// Port adapts one (platform, link) pair to the ccmode.Port interface: the
// narrow view of the CPU substrate and the PCIe link that protection-mode
// copy and fault transforms act through. The embedded platform supplies
// the engine, the observer, crypto, the bounce pool and staging copies;
// the link supplies the DMA. Each GPU gets its own Port (its own link),
// while the platform — and with it the crypto worker and bounce pool — is
// shared, both living on the host CPU.
type Port struct {
	*Platform
	link *pcie.Link
}

// NewPort binds a platform and a link into a ccmode.Port.
func NewPort(pl *Platform, link *pcie.Link) Port {
	return Port{Platform: pl, link: link}
}

var _ ccmode.Port = Port{}

// Frames implements ccmode.Port: the platform's pool, shared by the ports
// of every GPU on it.
func (pt Port) Frames() *ccmode.Frames { return &pt.chainFrames }

// DMAA implements ccmode.Port via the full-duplex link.
func (pt Port) DMAA(a *sim.Actor, d ccmode.Direction, n int64, step func(any), state any) {
	pt.link.TransferA(a, d, n, step, state)
}

// BridgeDMAA implements ccmode.Port via the serialized encrypted bridge,
// derated to the platform's BridgeGBps with IDE latency per transaction.
func (pt Port) BridgeDMAA(a *sim.Actor, d ccmode.Direction, n int64, step func(any), state any) {
	pt.link.BridgeTransferA(a, d, n, pt.params.BridgeGBps, pt.params.IDEPerTLP, step, state)
}
