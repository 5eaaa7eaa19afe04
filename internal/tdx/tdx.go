// Package tdx models the CPU-side trusted-execution substrate: an Intel TDX
// trust domain (TD) versus a legacy VM, as seen by a GPU driver running in
// the guest.
//
// The model captures the mechanisms the paper identifies as the sources of
// CPU-side CC overhead:
//
//   - MMIO to the passed-through GPU is direct in a legacy VM but traps in a
//     TD (#VE), where the guest's #VE handler issues a tdx_hypercall that
//     transits the TDX module (SEAM) to the host — per hypercall studies,
//     over 470% more expensive than a plain VM exit.
//   - The GPU cannot DMA into TD private memory, so every transfer stages
//     through a hypervisor-managed shared bounce buffer (SWIOTLB), allocated
//     with dma_alloc_* and converted with set_memory_decrypted().
//   - Data entering or leaving the TD over the bounce buffer is encrypted or
//     decrypted with software AES-GCM (single-threaded, AES-NI).
//   - Private-page management (SEPT AUG/ACCEPT on allocate, scrub + SEPT
//     removal on free) makes memory management ioctls several times slower.
//
// All operations are expressed as time charged to the calling simulation
// process, plus statistics used by the figure generators.
package tdx

import (
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/obs"
	"hccsim/internal/sim"
	"hccsim/internal/swcrypto"
	"hccsim/internal/units"
)

// PageBytes is the guest page granule for shared/private conversions.
const PageBytes = 4096

// Params holds the calibrated latency constants of the CPU TEE substrate.
type Params struct {
	// VMExit is the round-trip cost of a plain (legacy VM) exit to the host.
	VMExit time.Duration
	// Hypercall is the round-trip cost of a tdx_hypercall: TD -> TDX module
	// (SEAM transition) -> host -> back. Calibrated to ~5.7x a plain exit.
	Hypercall time.Duration
	// MMIODirect is a passthrough MMIO doorbell write/read in a legacy VM
	// (the BAR is mapped straight into the guest).
	MMIODirect time.Duration
	// SEPTPerPage is the secure-EPT AUG+ACCEPT cost per private page.
	SEPTPerPage time.Duration
	// ConvertPerPage is set_memory_decrypted()/encrypted() per page:
	// page-attribute change, TLB shootdown, and the MapGPA hypercall share.
	ConvertPerPage time.Duration
	// ScrubPerPage is the cost of scrubbing a private page on free (TDX
	// requires pages to be cleared before reclamation).
	ScrubPerPage time.Duration
	// DMAMapBase is the fixed cost of dma_direct_alloc / dma map setup for
	// one transfer through the SWIOTLB path.
	DMAMapBase time.Duration
	// HostMemcpyGBps is single-core DRAM streaming bandwidth, used for the
	// extra staging copy on pageable transfers and bounce-buffer copies.
	HostMemcpyGBps float64
	// BounceBufBytes is the capacity of the SWIOTLB bounce pool.
	BounceBufBytes int64
	// CryptoCPU and CryptoAlg select the software cipher on the copy path.
	CryptoCPU swcrypto.CPUModel
	CryptoAlg swcrypto.Algorithm
	// CryptoWorkers is the number of parallel encryption threads on the
	// copy path. Stock NVIDIA CC uses 1 (OpenSSL in the runtime's copy
	// path is single-threaded — Observation 2); PipeLLM-style runtime
	// modifications parallelize it.
	CryptoWorkers int
	// IDEPerTLP is the residual link-layer encryption latency per
	// transaction on the TEE-IO paths (hardware IDE, no bounce buffer, no
	// software crypto).
	IDEPerTLP time.Duration
	// BridgeGBps is the achievable rate through the serialized encrypted
	// CPU-GPU bridge of the "tee-io-bridge" mode (The Serialized Bridge:
	// Blackwell GPU-CC keeps GPU-local performance but the bridge
	// serializes both directions onto one engine, roughly halving the
	// full-duplex PCIe rate).
	BridgeGBps float64
}

// Stats aggregates substrate activity for reporting.
type Stats struct {
	Hypercalls     uint64
	VMExits        uint64
	MMIOs          uint64
	BytesEncrypted int64
	BytesDecrypted int64
	BytesStaged    int64
	PagesConverted int64
	PagesAccepted  int64
	PagesScrubbed  int64
	DMAMaps        uint64
	EncryptTime    time.Duration
	DecryptTime    time.Duration
}

// Platform is one guest (TD or legacy VM) plus the host machinery under it.
// The protection mode (internal/ccmode) decides which mechanisms engage;
// the platform supplies their calibrated costs and bookkeeping.
type Platform struct {
	eng    *sim.Engine
	mode   ccmode.Mode
	params Params
	crypto *swcrypto.SoftCrypto
	// cryptoWorker serializes software (de)cryption: OpenSSL on the CUDA
	// copy path is single-threaded, which is exactly why CC bandwidth caps
	// at the single-core AES-GCM rate (Observation 2).
	cryptoWorker *sim.Resource
	bounceUsed   int64
	bounceWait   []*bounceWaiter
	stats        Stats

	// obs is the attached observability layer (nil when tracing is off);
	// ctrk/btrk are its crypto-worker and bounce-pool timelines. The zero
	// Track records nothing, so span sites stay unconditional.
	obs  *obs.Observer
	ctrk obs.Track
	btrk obs.Track

	cryptFrames  sim.FramePool[cryptFrame]
	bounceFrames sim.FramePool[bounceFrame]
	// chainFrames backs every Port on this platform (ccmode.Port.Frames).
	chainFrames ccmode.Frames
}

type bounceWaiter struct {
	need int64
	sig  *sim.Signal
}

// NewPlatform creates a guest platform under the given protection mode.
// It panics on a nil mode, or if the params name an unknown crypto
// algorithm or CPU model, since no meaningful simulation can run without a
// calibrated cipher.
func NewPlatform(eng *sim.Engine, mode ccmode.Mode, params Params) *Platform {
	if mode == nil {
		panic("tdx: nil protection mode")
	}
	workers := params.CryptoWorkers
	if workers < 1 {
		workers = 1
	}
	pl := &Platform{eng: eng, mode: mode, params: params,
		cryptoWorker: sim.NewResource(eng, workers).SetLabel("tdx-crypto")}
	if mode.CC() {
		sc, err := swcrypto.NewSoftCrypto(params.CryptoCPU, params.CryptoAlg)
		if err != nil {
			panic("tdx: " + err.Error())
		}
		pl.crypto = sc
	}
	return pl
}

// SetObserver attaches the observability layer and registers the
// platform's timelines. Call before the run starts; a nil observer
// detaches.
func (pl *Platform) SetObserver(o *obs.Observer) {
	pl.obs = o
	pl.ctrk = o.Track("tdx-crypto")
	pl.btrk = o.Track("tdx-bounce")
}

// Observer returns the attached recorder (nil when nothing records). It
// implements part of ccmode.Port via the port adapter.
func (pl *Platform) Observer() *obs.Observer { return pl.obs }

// Mode returns the platform's protection mode.
func (pl *Platform) Mode() ccmode.Mode { return pl.mode }

// CC reports whether the guest is a trust domain (confidential computing on).
func (pl *Platform) CC() bool { return pl.mode.CC() }

// SoftwareCryptoPath reports whether transfers go through the bounce-buffer
// + software-encryption path: true for stock CC, false for legacy VMs and
// for the TEE-IO modes (hardware IDE).
func (pl *Platform) SoftwareCryptoPath() bool { return pl.mode.SoftwareCryptoPath() }

// Params returns the platform's latency constants.
func (pl *Platform) Params() Params { return pl.params }

// Stats returns a snapshot of substrate counters.
func (pl *Platform) Stats() Stats { return pl.stats }

// Sub returns the change from o to s.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hypercalls:     s.Hypercalls - o.Hypercalls,
		VMExits:        s.VMExits - o.VMExits,
		MMIOs:          s.MMIOs - o.MMIOs,
		BytesEncrypted: s.BytesEncrypted - o.BytesEncrypted,
		BytesDecrypted: s.BytesDecrypted - o.BytesDecrypted,
		BytesStaged:    s.BytesStaged - o.BytesStaged,
		PagesConverted: s.PagesConverted - o.PagesConverted,
		PagesAccepted:  s.PagesAccepted - o.PagesAccepted,
		PagesScrubbed:  s.PagesScrubbed - o.PagesScrubbed,
		DMAMaps:        s.DMAMaps - o.DMAMaps,
		EncryptTime:    s.EncryptTime - o.EncryptTime,
		DecryptTime:    s.DecryptTime - o.DecryptTime,
	}
}

// Add adds the change o to s.
func (s *Stats) Add(o *Stats) {
	s.Hypercalls += o.Hypercalls
	s.VMExits += o.VMExits
	s.MMIOs += o.MMIOs
	s.BytesEncrypted += o.BytesEncrypted
	s.BytesDecrypted += o.BytesDecrypted
	s.BytesStaged += o.BytesStaged
	s.PagesConverted += o.PagesConverted
	s.PagesAccepted += o.PagesAccepted
	s.PagesScrubbed += o.PagesScrubbed
	s.DMAMaps += o.DMAMaps
	s.EncryptTime += o.EncryptTime
	s.DecryptTime += o.DecryptTime
}

// CryptoBusy returns the cumulative time the crypto worker pool had at
// least one worker busy.
func (pl *Platform) CryptoBusy() time.Duration { return pl.cryptoWorker.BusyTime() }

// Idle reports whether the copy path's shared host machinery is free: no
// crypto worker held or awaited, nothing reserved in the bounce pool and
// no one waiting for it.
func (pl *Platform) Idle() bool {
	return pl.cryptoWorker.Idle() && pl.bounceUsed == 0 && len(pl.bounceWait) == 0
}

// Credit adds a Stats change and crypto-worker busy time to the platform,
// as if the operations behind them had run: the stand-in for a replayed
// copy's substrate work.
func (pl *Platform) Credit(s *Stats, cryptoBusy time.Duration) {
	pl.stats.Add(s)
	pl.cryptoWorker.AddBusy(cryptoBusy)
}

// Engine returns the simulation engine.
func (pl *Platform) Engine() *sim.Engine { return pl.eng }

func pages(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + PageBytes - 1) / PageBytes
}

// HypercallA charges one tdx_hypercall round trip (TD only), then runs
// step(state).
func (pl *Platform) HypercallA(a *sim.Actor, step func(any), state any) {
	pl.stats.Hypercalls++
	a.Sleep(pl.params.Hypercall, step, state)
}

// MMIO charges one access to the passed-through GPU's BAR. In a legacy VM
// this is a direct mapped access; in a TD it raises #VE and is forwarded to
// the host via tdx_hypercall. Unlike the other operations that have a
// continuation form, MMIO is not an Await bridge over MMIOA: the cuda
// launch path relies on its inline p.Sleep.
func (pl *Platform) MMIO(p *sim.Proc) { p.Sleep(pl.mmio()) }

// MMIOA is the continuation form of MMIO.
func (pl *Platform) MMIOA(a *sim.Actor, step func(any), state any) {
	a.Sleep(pl.mmio(), step, state)
}

// mmio counts one BAR access and returns its latency.
func (pl *Platform) mmio() time.Duration {
	pl.stats.MMIOs++
	if pl.mode.MMIOTraps() {
		pl.stats.Hypercalls++
		return pl.params.Hypercall
	}
	pl.stats.VMExits++ // accounted as a (cheap) direct access, no real exit
	return pl.params.MMIODirect
}

// MMIOCost returns the per-access MMIO latency without charging it, for
// call-stack reporting (Fig. 8).
func (pl *Platform) MMIOCost() time.Duration {
	if pl.mode.MMIOTraps() {
		return pl.params.Hypercall
	}
	return pl.params.MMIODirect
}

// AcceptPrivate charges SEPT page-acceptance for newly touched private
// memory (modes with private allocations only; no-op otherwise).
func (pl *Platform) AcceptPrivate(p *sim.Proc, bytes int64) {
	if !pl.mode.PrivateAllocs() {
		return
	}
	n := pages(bytes)
	pl.stats.PagesAccepted += n
	p.Sleep(time.Duration(n) * pl.params.SEPTPerPage)
}

// ConvertShared charges set_memory_decrypted over the range (modes with
// private allocations only): converting private pages to hypervisor-shared
// so a device can DMA them.
func (pl *Platform) ConvertShared(p *sim.Proc, bytes int64) {
	if !pl.mode.PrivateAllocs() {
		return
	}
	n := pages(bytes)
	pl.stats.PagesConverted += n
	p.Sleep(time.Duration(n) * pl.params.ConvertPerPage)
}

// ScrubPrivate charges the page scrub TDX requires before reclaiming
// private pages on free (modes with private allocations only).
func (pl *Platform) ScrubPrivate(p *sim.Proc, bytes int64) {
	if !pl.mode.PrivateAllocs() {
		return
	}
	n := pages(bytes)
	pl.stats.PagesScrubbed += n
	p.Sleep(time.Duration(n) * pl.params.ScrubPerPage)
}

// HostMemcpyA charges a CPU staging copy of n bytes (pageable-transfer
// staging, bounce-buffer fill/drain), then runs step(state).
func (pl *Platform) HostMemcpyA(a *sim.Actor, n int64, step func(any), state any) {
	if n <= 0 {
		step(state)
		return
	}
	pl.stats.BytesStaged += n
	a.Sleep(units.StreamDuration(n, pl.params.HostMemcpyGBps), step, state)
}

// BounceAcquire reserves n bytes of SWIOTLB bounce space, blocking while the
// pool is exhausted, and charges the dma_direct_alloc mapping cost. It is a
// no-op (returning instantly) in a legacy VM, where the device DMAs guest
// memory directly. A single request larger than the whole pool panics —
// it could never be satisfied and would deadlock the waiter.
func (pl *Platform) BounceAcquire(p *sim.Proc, n int64) {
	if !pl.mode.SoftwareCryptoPath() || n <= 0 {
		return
	}
	p.Await(func(a *sim.Actor, step func(any), state any) {
		pl.BounceAcquireA(a, n, step, state)
	})
}

// bounceFrame carries one in-flight BounceAcquireA; recycled through the
// platform's pool.
type bounceFrame struct {
	pl    *Platform
	a     *sim.Actor
	n     int64
	sp    obs.Span
	step  func(any)
	state any
}

// BounceAcquireA is the continuation form of BounceAcquire: charge the DMA
// mapping cost, wait (re-checking on every wake, like the blocking form's
// loop) until the request fits in the pool, reserve, then run step(state).
// Like BounceAcquire it panics on a request larger than the whole pool,
// which could never be satisfied.
func (pl *Platform) BounceAcquireA(a *sim.Actor, n int64, step func(any), state any) {
	if !pl.mode.SoftwareCryptoPath() || n <= 0 {
		step(state)
		return
	}
	if n > pl.params.BounceBufBytes {
		panic("tdx: bounce request exceeds pool size")
	}
	pl.stats.DMAMaps++
	f := pl.bounceFrames.Get()
	f.pl, f.a, f.n, f.step, f.state = pl, a, n, step, state
	f.sp = pl.btrk.Begin("bounce-acquire").Bytes(n)
	a.Sleep(pl.params.DMAMapBase, bounceMapped, f)
}

func bounceMapped(x any) {
	f := x.(*bounceFrame)
	pl := f.pl
	if pl.bounceUsed+f.n > pl.params.BounceBufBytes {
		w := &bounceWaiter{need: f.n, sig: sim.NewSignal(pl.eng).SetLabel("tdx-bounce")}
		pl.bounceWait = append(pl.bounceWait, w)
		w.sig.WaitA(f.a, bounceMapped, f)
		return
	}
	pl.bounceUsed += f.n
	f.sp.End()
	step, state := f.step, f.state
	pl.bounceFrames.Put(f)
	step(state)
}

// BounceRelease returns n bytes to the bounce pool and wakes waiters whose
// requests now fit. Releasing more than was acquired panics.
func (pl *Platform) BounceRelease(n int64) {
	if !pl.mode.SoftwareCryptoPath() || n <= 0 {
		return
	}
	pl.bounceUsed -= n
	if pl.bounceUsed < 0 {
		panic("tdx: bounce pool underflow")
	}
	var still []*bounceWaiter
	for _, w := range pl.bounceWait {
		if pl.bounceUsed+w.need <= pl.params.BounceBufBytes {
			w.sig.Fire()
		} else {
			still = append(still, w)
		}
	}
	pl.bounceWait = still
}

// BounceInUse returns the bytes currently reserved in the bounce pool.
func (pl *Platform) BounceInUse() int64 { return pl.bounceUsed }

// Encrypt charges software AES-GCM encryption of n bytes on the (single)
// crypto worker. No-op in a legacy VM.
func (pl *Platform) Encrypt(p *sim.Proc, n int64) { pl.crypt(p, n, false) }

// Decrypt charges software AES-GCM decryption of n bytes. No-op without CC.
func (pl *Platform) Decrypt(p *sim.Proc, n int64) { pl.crypt(p, n, true) }

func (pl *Platform) crypt(p *sim.Proc, n int64, decrypt bool) {
	if !pl.mode.CC() || n <= 0 {
		return
	}
	p.Await(func(a *sim.Actor, step func(any), state any) {
		pl.cryptA(a, n, decrypt, step, state)
	})
}

// cryptFrame carries one in-flight EncryptA/DecryptA; recycled through the
// platform's pool.
type cryptFrame struct {
	pl      *Platform
	n       int64
	d       time.Duration
	decrypt bool
	sp      obs.Span
	step    func(any)
	state   any
}

// EncryptA is the continuation form of Encrypt.
func (pl *Platform) EncryptA(a *sim.Actor, n int64, step func(any), state any) {
	pl.cryptA(a, n, false, step, state)
}

// DecryptA is the continuation form of Decrypt.
func (pl *Platform) DecryptA(a *sim.Actor, n int64, step func(any), state any) {
	pl.cryptA(a, n, true, step, state)
}

func (pl *Platform) cryptA(a *sim.Actor, n int64, decrypt bool, step func(any), state any) {
	if !pl.mode.CC() || n <= 0 {
		step(state)
		return
	}
	if !pl.mode.SoftwareCryptoPath() {
		// Hardware IDE: link-layer encryption at line rate.
		a.Sleep(pl.params.IDEPerTLP, step, state)
		return
	}
	d := pl.crypto.Time(n)
	f := pl.cryptFrames.Get()
	f.pl, f.n, f.d, f.decrypt, f.step, f.state = pl, n, d, decrypt, step, state
	if decrypt {
		f.sp = pl.ctrk.Begin("decrypt").Bytes(n)
	} else {
		f.sp = pl.ctrk.Begin("encrypt").Bytes(n)
	}
	pl.cryptoWorker.UseA(a, d, cryptDone, f)
}

func cryptDone(x any) {
	f := x.(*cryptFrame)
	pl, step, state := f.pl, f.step, f.state
	if f.decrypt {
		pl.stats.BytesDecrypted += f.n
		pl.stats.DecryptTime += f.d
	} else {
		pl.stats.BytesEncrypted += f.n
		pl.stats.EncryptTime += f.d
	}
	f.sp.End()
	pl.cryptFrames.Put(f)
	step(state)
}

// CryptoTime returns the modelled (de)cryption time for n bytes without
// charging it — used by GPU-side pipeline stages and analytic models.
func (pl *Platform) CryptoTime(n int64) time.Duration {
	if !pl.mode.CC() || n <= 0 {
		return 0
	}
	if !pl.mode.SoftwareCryptoPath() {
		return pl.params.IDEPerTLP
	}
	return pl.crypto.Time(n)
}
