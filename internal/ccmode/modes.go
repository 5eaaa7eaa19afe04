package ccmode

import (
	"time"

	"hccsim/internal/sim"
)

// Off is the legacy-VM baseline: no trust domain, direct MMIO, direct DMA
// (with a staging memcpy for pageable buffers), no page acceptance or
// scrubbing. This is the paper's CC-off column.
type Off struct{}

// Name implements Mode.
func (Off) Name() string { return "off" }

// CC implements Mode.
func (Off) CC() bool { return false }

// MMIOTraps implements Mode.
func (Off) MMIOTraps() bool { return false }

// SoftwareCryptoPath implements Mode.
func (Off) SoftwareCryptoPath() bool { return false }

// CmdAuth implements Mode.
func (Off) CmdAuth() bool { return false }

// PrivateAllocs implements Mode.
func (Off) PrivateAllocs() bool { return false }

// HostPinWorks implements Mode.
func (Off) HostPinWorks() bool { return true }

// LaunchPost implements Mode.
func (Off) LaunchPost(base, cc time.Duration) time.Duration { return base }

// FaultBatch implements Mode.
func (Off) FaultBatch(base, cc int) int { return base }

// FaultHypercalls implements Mode.
func (Off) FaultHypercalls(configured int) int { return 0 }

// Transfer implements Mode: direct chunked DMA, staging pageable buffers.
func (m Off) Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	return transferAwait(m, port, p, dir, bytes, chunk, pinned)
}

// TransferA implements Mode.
func (m Off) TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) bool {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, bytes: bytes, chunk: chunk,
		pinned: pinned, sp: beginChain(port, transferSpan, m.Name(), dir, bytes),
		one: directChunk, step: step, state: state}
	chunkNext(f)
	return false
}

// MigrateA implements Mode: UVM pages move in one plain DMA per batch.
func (Off) MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any) {
	port.DMAA(a, dir, bytes, step, state)
}

// TDXH100 is the platform the paper measures: an Intel TDX trust domain
// with an H100 outside the TCB. MMIO traps via #VE and tdx_hypercall, every
// transfer stages through the SWIOTLB bounce buffer and single-threaded
// software AES-GCM, allocations manage SEPT-private pages, pinning is
// demoted to shared registration, and UVM degrades to encrypted paging.
type TDXH100 struct{}

// Name implements Mode.
func (TDXH100) Name() string { return "tdx-h100" }

// CC implements Mode.
func (TDXH100) CC() bool { return true }

// MMIOTraps implements Mode.
func (TDXH100) MMIOTraps() bool { return true }

// SoftwareCryptoPath implements Mode.
func (TDXH100) SoftwareCryptoPath() bool { return true }

// CmdAuth implements Mode.
func (TDXH100) CmdAuth() bool { return true }

// PrivateAllocs implements Mode.
func (TDXH100) PrivateAllocs() bool { return true }

// HostPinWorks implements Mode.
func (TDXH100) HostPinWorks() bool { return false }

// LaunchPost implements Mode.
func (TDXH100) LaunchPost(base, cc time.Duration) time.Duration { return cc }

// FaultBatch implements Mode.
func (TDXH100) FaultBatch(base, cc int) int { return cc }

// FaultHypercalls implements Mode.
func (TDXH100) FaultHypercalls(configured int) int { return configured }

// Transfer implements Mode: per chunk, reserve bounce space, encrypt before
// H2D DMA (or decrypt after D2H), release. "Pinned" host memory rides this
// same encrypted-paging path, so the transfer is reported managed.
func (m TDXH100) Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	return transferAwait(m, port, p, dir, bytes, chunk, pinned)
}

// TransferA implements Mode.
func (m TDXH100) TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) bool {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, bytes: bytes, chunk: chunk,
		sp:  beginChain(port, transferSpan, m.Name(), dir, bytes),
		one: tdxChunk, step: step, state: state}
	chunkNext(f)
	return pinned
}

// MigrateA implements Mode: encrypted paging — one single-shot chain of
// bounce staging plus software crypto around the DMA, in the same order as
// the explicit copy path.
func (m TDXH100) MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any) {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, off: bytes, bytes: bytes,
		n: bytes, sp: beginChain(port, migrateSpan, m.Name(), dir, bytes),
		step: step, state: state}
	tdxChunk(f)
}

func tdxChunk(f *chunkFrame) {
	f.port.BounceAcquireA(f.a, f.n, tdxBounced, f)
}

func tdxBounced(x any) {
	f := x.(*chunkFrame)
	if f.dir == H2D {
		f.port.EncryptA(f.a, f.n, tdxEncrypted, f)
	} else {
		f.port.DMAA(f.a, f.dir, f.n, tdxLanded, f)
	}
}

func tdxEncrypted(x any) {
	f := x.(*chunkFrame)
	f.port.DMAA(f.a, f.dir, f.n, tdxChunkEnd, f)
}

func tdxLanded(x any) {
	f := x.(*chunkFrame)
	f.port.DecryptA(f.a, f.n, tdxChunkEnd, f)
}

func tdxChunkEnd(x any) {
	f := x.(*chunkFrame)
	f.port.BounceRelease(f.n)
	chunkNext(f)
}

// TEEIODirect is the TDX Connect / PCIe TEE-IO projection the paper points to
// as the hardware fix: the device joins the TCB, DMA is direct with hardware
// IDE on the UVM path, trusted MMIO no longer traps — but the CPU substrate is
// still a TD, so private-page management, CC allocation costs, and the pinning
// demotion remain.
type TEEIODirect struct{}

// Name implements Mode.
func (TEEIODirect) Name() string { return "tee-io-direct" }

// CC implements Mode.
func (TEEIODirect) CC() bool { return true }

// MMIOTraps implements Mode.
func (TEEIODirect) MMIOTraps() bool { return false }

// SoftwareCryptoPath implements Mode.
func (TEEIODirect) SoftwareCryptoPath() bool { return false }

// CmdAuth implements Mode.
func (TEEIODirect) CmdAuth() bool { return false }

// PrivateAllocs implements Mode.
func (TEEIODirect) PrivateAllocs() bool { return true }

// HostPinWorks implements Mode.
func (TEEIODirect) HostPinWorks() bool { return false }

// LaunchPost implements Mode.
func (TEEIODirect) LaunchPost(base, cc time.Duration) time.Duration { return cc }

// FaultBatch implements Mode: direct DMA keeps the prefetcher's batches.
func (TEEIODirect) FaultBatch(base, cc int) int { return base }

// FaultHypercalls implements Mode.
func (TEEIODirect) FaultHypercalls(configured int) int { return 0 }

// Transfer implements Mode: direct DMA like a legacy VM (hardware IDE runs
// at line rate on the explicit copy path).
func (m TEEIODirect) Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	return transferAwait(m, port, p, dir, bytes, chunk, pinned)
}

// TransferA implements Mode.
func (m TEEIODirect) TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) bool {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, bytes: bytes, chunk: chunk,
		pinned: pinned, sp: beginChain(port, transferSpan, m.Name(), dir, bytes),
		one: directChunk, step: step, state: state}
	chunkNext(f)
	return false
}

// MigrateA implements Mode: one single-shot chain of direct DMA plus the
// residual per-TLP IDE latency (charged through the port's crypto
// primitives, which resolve to IDE for non-software-crypto CC modes).
func (m TEEIODirect) MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any) {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, off: bytes, bytes: bytes,
		n: bytes, sp: beginChain(port, migrateSpan, m.Name(), dir, bytes),
		step: step, state: state}
	if dir == H2D {
		f.port.EncryptA(f.a, f.n, teeioEncrypted, f)
	} else {
		f.port.DMAA(f.a, f.dir, f.n, teeioLanded, f)
	}
}

func teeioEncrypted(x any) {
	f := x.(*chunkFrame)
	f.port.DMAA(f.a, f.dir, f.n, chunkNext, f)
}

func teeioLanded(x any) {
	f := x.(*chunkFrame)
	f.port.DecryptA(f.a, f.n, chunkNext, f)
}

// TEEIOBridge models Blackwell-generation GPU confidential computing as
// characterized by "The Serialized Bridge": GPU-local performance is
// preserved — kernels launch, dispatch, and allocate at non-CC cost, so the
// kernel-side overhead share (1-beta) is ~0 — while every byte crossing the
// CPU–GPU boundary funnels through a serialized encrypted bridge: one
// resource spanning both directions (no full-duplex overlap), derated
// bandwidth, and hardware IDE latency per transaction.
type TEEIOBridge struct{}

// Name implements Mode.
func (TEEIOBridge) Name() string { return "tee-io-bridge" }

// CC implements Mode.
func (TEEIOBridge) CC() bool { return true }

// MMIOTraps implements Mode.
func (TEEIOBridge) MMIOTraps() bool { return false }

// SoftwareCryptoPath implements Mode.
func (TEEIOBridge) SoftwareCryptoPath() bool { return false }

// CmdAuth implements Mode: packet authentication runs at line rate in the
// device's secure front end.
func (TEEIOBridge) CmdAuth() bool { return false }

// PrivateAllocs implements Mode: device memory management stays GPU-local.
func (TEEIOBridge) PrivateAllocs() bool { return false }

// HostPinWorks implements Mode: the trusted device DMAs guest memory
// directly, so pinning keeps working.
func (TEEIOBridge) HostPinWorks() bool { return true }

// LaunchPost implements Mode.
func (TEEIOBridge) LaunchPost(base, cc time.Duration) time.Duration { return base }

// FaultBatch implements Mode.
func (TEEIOBridge) FaultBatch(base, cc int) int { return base }

// FaultHypercalls implements Mode.
func (TEEIOBridge) FaultHypercalls(configured int) int { return 0 }

// Transfer implements Mode: every chunk crosses the serialized bridge
// (pageable buffers still pay the staging memcpy first).
func (m TEEIOBridge) Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	return transferAwait(m, port, p, dir, bytes, chunk, pinned)
}

// TransferA implements Mode.
func (m TEEIOBridge) TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) bool {
	f := port.Frames().pool.Get()
	*f = chunkFrame{port: port, a: a, dir: dir, bytes: bytes, chunk: chunk,
		pinned: pinned, sp: beginChain(port, transferSpan, m.Name(), dir, bytes),
		one: bridgeChunk, step: step, state: state}
	chunkNext(f)
	return false
}

// MigrateA implements Mode: UVM batches cross the same serialized bridge.
func (TEEIOBridge) MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any) {
	port.BridgeDMAA(a, dir, bytes, step, state)
}

func bridgeChunk(f *chunkFrame) {
	if f.pinned {
		bridgeStaged(f)
		return
	}
	f.port.HostMemcpyA(f.a, f.n, bridgeStaged, f)
}

func bridgeStaged(x any) {
	f := x.(*chunkFrame)
	f.port.BridgeDMAA(f.a, f.dir, f.n, chunkNext, f)
}
