// Package gpu models the device side of the system: command channels fed by
// the in-guest driver, a command processor that dispatches work to engines,
// a serial compute engine with a roofline kernel-timing model, copy engines
// riding the PCIe link, and the CC-mode additions (encrypted command
// packets, bounce-buffered encrypted DMA).
package gpu

import (
	"fmt"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/hbm"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
	"hccsim/internal/units"
	"hccsim/internal/uvm"
)

// Params holds the calibrated device constants (H100 NVL unless noted).
type Params struct {
	// SMs is the streaming-multiprocessor count (H100: 132).
	SMs int
	// ThreadsPerSM bounds resident threads for the occupancy estimate.
	ThreadsPerSM int
	// PeakFP32TFLOPs is the FP32 roofline ceiling.
	PeakFP32TFLOPs float64
	// TensorTFLOPs is the FP16/BF16 tensor-core ceiling, used by the NN models.
	TensorTFLOPs float64
	// DispatchBase is the command processor's per-command handling cost.
	DispatchBase time.Duration
	// CmdAuthCC is the extra per-command cost in CC mode: the command
	// processor must decrypt and authenticate the AES-GCM-protected packet
	// before dispatch. This is the mechanism behind the KQT amplification
	// the paper sees on few-launch applications.
	CmdAuthCC time.Duration
	// KernelFixedOverhead is per-kernel scheduling cost on the compute
	// engine (grid setup, block scheduling ramp).
	KernelFixedOverhead time.Duration
	// BlitGBps is device-to-device copy bandwidth through L2/HBM.
	BlitGBps float64
	// MaxConcurrentKernels bounds kernels resident at once across streams
	// (within one stream the channel FIFO serializes regardless).
	MaxConcurrentKernels int
	// ChunkBytes is the DMA chunk size for host<->device copies.
	ChunkBytes int64
}

// ManagedAccess declares that a kernel touches a UVM range.
type ManagedAccess struct {
	Range  *uvm.Range
	Offset int64 // start of the touched window (wraps at the range end)
	Bytes  int64 // footprint touched; capped at the range size
	Random bool  // random access defeats fault coalescing
}

// KernelSpec describes one kernel's work. Either Fixed is set (nanosleep
// microbenchmarks, Listing 1 of the paper) or the roofline inputs are.
type KernelSpec struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	FLOPs           float64 // total floating-point operations
	MemBytes        int64   // HBM traffic
	Fixed           time.Duration
	// CodeBytes is the SASS/PTX module size uploaded on first launch; fused
	// kernels carry the sum of their parts (loop-unrolling parameter N_x in
	// the paper's microbenchmark controls exactly this).
	CodeBytes int64
	Managed   []ManagedAccess
}

// Device is one GPU bound to a guest platform.
type Device struct {
	eng    *sim.Engine
	pl     *tdx.Platform
	link   *pcie.Link
	mode   ccmode.Mode
	port   tdx.Port
	mem    *hbm.Allocator
	uvm    *uvm.Manager
	params Params

	cmdproc  *sim.Resource // serializes command dispatch across channels
	compute  *sim.Resource // serial kernel execution
	channels []*Channel

	// obs is the run's recorder, nil when nothing records.
	obs *obs.Observer

	kernelsRun uint64
}

// New creates a device on the given substrates. It records nothing until
// SetObserver attaches a recorder. It panics on non-positive SM or
// chunk-size params, which have no physical meaning.
func New(eng *sim.Engine, pl *tdx.Platform, link *pcie.Link, mem *hbm.Allocator,
	uvmMgr *uvm.Manager, params Params) *Device {
	if params.SMs <= 0 || params.ChunkBytes <= 0 {
		panic("gpu: invalid params")
	}
	conc := params.MaxConcurrentKernels
	if conc < 1 {
		conc = 1
	}
	return &Device{
		eng: eng, pl: pl, link: link, mem: mem, uvm: uvmMgr,
		mode:    pl.Mode(),
		port:    tdx.NewPort(pl, link),
		params:  params,
		cmdproc: sim.NewResource(eng, 1).SetLabel("gpu-cmdproc"),
		compute: sim.NewResource(eng, conc).SetLabel("gpu-compute"),
	}
}

// SetObserver attaches the run's recorder (nil records nothing): every
// channel gets a timeline on which each kernel and async copy is one span
// that is also its Nsight event.
func (d *Device) SetObserver(o *obs.Observer) {
	d.obs = o
	for _, ch := range d.channels {
		ch.trk = o.Track(fmt.Sprintf("gpu-ch%d", ch.id))
	}
}

// Params returns the device constants.
func (d *Device) Params() Params { return d.params }

// Mem returns the HBM allocator.
func (d *Device) Mem() *hbm.Allocator { return d.mem }

// UVM returns the unified-memory manager.
func (d *Device) UVM() *uvm.Manager { return d.uvm }

// KernelsRun returns the number of kernels executed.
func (d *Device) KernelsRun() uint64 { return d.kernelsRun }

// KernelTime returns the modelled execution duration of spec, excluding UVM
// fault servicing: Fixed if set, else the roofline bound scaled by an
// occupancy estimate, plus fixed scheduling overhead.
func (d *Device) KernelTime(spec KernelSpec) time.Duration {
	if spec.Fixed > 0 {
		return spec.Fixed
	}
	occ := 1.0
	if spec.Blocks > 0 && spec.ThreadsPerBlock > 0 {
		threads := float64(spec.Blocks * spec.ThreadsPerBlock)
		capacity := float64(d.params.SMs * d.params.ThreadsPerSM)
		if threads < capacity {
			occ = threads / capacity
			if occ < 0.02 {
				occ = 0.02 // even one block keeps some SMs busy
			}
		}
	}
	flopTime := spec.FLOPs / (d.params.PeakFP32TFLOPs * 1e12 * occ)
	memTime := units.StreamSec(spec.MemBytes, d.mem.Params().BandwidthGBps)
	t := flopTime
	if memTime > t {
		t = memTime
	}
	return d.params.KernelFixedOverhead + units.FromSec(t)
}

// dispatchCost is the command processor's per-command time: base handling
// plus, when the mode authenticates command packets, AES-GCM verification
// before dispatch.
func (d *Device) dispatchCost() time.Duration {
	c := d.params.DispatchBase
	if d.mode.CmdAuth() {
		c += d.params.CmdAuthCC
	}
	return c
}

// Channel is one GPFIFO command stream (a CUDA stream maps to one). Each
// channel is drained in FIFO order by its own processor loop — a
// run-to-completion actor state machine, since this is the hottest daemon
// in the simulator — while dispatch and the compute engine are shared
// across channels. Kernel and copy commands are taken from per-channel
// pools and queued as pointers, and the rest of the in-flight command state
// lives directly on the Channel: exactly one command is ever being
// processed per channel, so in steady state neither a submission nor the
// loop allocates. Commands complete strictly in submission order, so the
// channel counts its completions instead of signalling each one: waiting
// for a command is waiting for the count to reach its position.
type Channel struct {
	dev       *Device
	id        int
	q         *sim.Queue[command]
	submitted uint64       // commands ever queued
	completed *sim.Counter // commands ever completed
	kpool     sim.FramePool[kernelCmd]
	cpool     sim.FramePool[copyCmd]

	a       *sim.Actor
	kc      *kernelCmd // kernel in flight
	cc      *copyCmd   // copy in flight
	wc      waitCmd    // barrier in flight
	mai     int        // next managed access of the kernel in flight
	managed bool       // copy in flight was demoted to encrypted paging
	trk     obs.Track  // this channel's timeline (zero when tracing is off)
	sp      obs.Span   // span of the command in flight
}

// NewChannel creates and starts a channel.
func (d *Device) NewChannel() *Channel {
	name := fmt.Sprintf("gpu-ch%d", len(d.channels))
	ch := &Channel{dev: d, id: len(d.channels),
		q:         sim.NewQueue[command](d.eng).SetLabel(name),
		completed: sim.NewCounter().SetLabel(name),
		trk:       d.obs.Track(name)}
	d.channels = append(d.channels, ch)
	d.eng.SpawnActorDaemon(name, func(a *sim.Actor) {
		ch.a = a
		chanNext(ch)
	})
	return ch
}

// ID returns the channel's index (stream id in traces).
func (ch *Channel) ID() int { return ch.id }

// InFlight returns the number of submitted commands not yet completed.
func (ch *Channel) InFlight() int { return int(ch.submitted - ch.completed.N()) }

// WaitOldest blocks p until the oldest in-flight command completes. It
// panics if nothing is in flight: that wait could never end, and a caller
// looping on it (a launch ring of no slots) would spin forever instead.
func (ch *Channel) WaitOldest(p *sim.Proc) {
	if ch.InFlight() == 0 {
		panic(fmt.Sprintf("gpu: WaitOldest on idle channel %d", ch.id))
	}
	ch.completed.WaitFor(p, ch.completed.N()+1)
}

// WaitIdle blocks p until every command submitted so far has completed.
func (ch *Channel) WaitIdle(p *sim.Proc) { ch.completed.WaitFor(p, ch.submitted) }

type command interface{ isCommand() }

type kernelCmd struct {
	spec    KernelSpec
	seq     int // correlation id shared with the launch event
	graphed bool
}

type copyCmd struct {
	kind   trace.Kind
	dir    pcie.Direction
	bytes  int64
	pinned bool // host-side buffer was pinned (CC demotes to managed)
}

type markerCmd struct {
	done *sim.Signal
}

func (*kernelCmd) isCommand() {}
func (*copyCmd) isCommand()   {}
func (markerCmd) isCommand()  {}

// put queues a command.
func (ch *Channel) put(cmd command) {
	ch.q.Put(cmd)
	ch.submitted++
}

// Kernel enqueues a kernel; graphed nodes skip per-command authentication
// overhead after the first (the whole graph is one packet).
func (ch *Channel) Kernel(spec KernelSpec, seq int, graphed bool) {
	k := ch.kpool.Get()
	k.spec, k.seq, k.graphed = spec, seq, graphed
	ch.put(k)
}

// Copy enqueues an async copy.
func (ch *Channel) Copy(kind trace.Kind, dir pcie.Direction, bytes int64, pinned bool) {
	c := ch.cpool.Get()
	c.kind, c.dir, c.bytes, c.pinned = kind, dir, bytes, pinned
	ch.put(c)
}

// SubmitKernel enqueues a kernel and returns a signal that fires when it
// completes: a marker queued right behind it, which fires at the kernel's
// completion instant because the channel completes in FIFO order. It serves
// callers that wait on a signal (the hccperf channel microbenchmarks); the
// cuda runtime uses Kernel.
func (ch *Channel) SubmitKernel(spec KernelSpec, seq int, graphed bool) *sim.Signal {
	ch.Kernel(spec, seq, graphed)
	return ch.SubmitMarker()
}

// SubmitCopy is the signal form of Copy, as SubmitKernel is of Kernel.
func (ch *Channel) SubmitCopy(kind trace.Kind, dir pcie.Direction, bytes int64, pinned bool) *sim.Signal {
	ch.Copy(kind, dir, bytes, pinned)
	return ch.SubmitMarker()
}

// SubmitMarker enqueues a synchronization marker that fires when every
// earlier command on the channel has completed.
func (ch *Channel) SubmitMarker() *sim.Signal {
	done := sim.NewSignal(ch.dev.eng)
	ch.put(markerCmd{done: done})
	return done
}

// chanNext fetches the channel's next command — the top of the processor
// loop.
func chanNext(x any) {
	ch := x.(*Channel)
	ch.q.GetA(ch.a, chanDispatch, ch)
}

// chanDispatch routes one command to its engine chain, FIFO.
func chanDispatch(x any, cmd command) {
	ch := x.(*Channel)
	d := ch.dev
	switch c := cmd.(type) {
	case *kernelCmd:
		ch.kc = c
		cost := d.dispatchCost()
		if c.graphed {
			// Graph nodes after the first dispatch from on-device state.
			cost = d.params.DispatchBase / 4
		}
		d.cmdproc.UseA(ch.a, cost, kernelDispatched, ch)
	case *copyCmd:
		ch.cc = c
		d.cmdproc.UseA(ch.a, d.dispatchCost(), copyDispatched, ch)
	case markerCmd:
		c.done.Fire()
		ch.completed.Add()
		chanNext(ch)
	case waitCmd:
		ch.wc = c
		c.on.WaitA(ch.a, chanWaited, ch)
	}
}

func chanWaited(x any) {
	ch := x.(*Channel)
	ch.wc = waitCmd{}
	ch.completed.Add()
	chanNext(ch)
}

func kernelDispatched(x any) {
	ch := x.(*Channel)
	ch.dev.compute.AcquireA(ch.a, kernelStarted, ch)
}

func kernelStarted(x any) {
	ch := x.(*Channel)
	ch.mai = 0
	ch.sp = ch.trk.BeginEvent(ch.kc.spec.Name)
	kernelFaults(ch)
}

// kernelFaults services the kernel's managed accesses one after another
// (fault time lands inside the kernel, as Nsight sees it), then runs the
// kernel itself.
func kernelFaults(x any) {
	ch := x.(*Channel)
	spec := &ch.kc.spec
	if ch.mai < len(spec.Managed) {
		ma := spec.Managed[ch.mai]
		ch.mai++
		ma.Range.GPUAccessAtA(ch.a, ma.Offset, ma.Bytes, ma.Random, kernelFaults, ch)
		return
	}
	ch.a.Sleep(ch.dev.KernelTime(*spec), kernelDone, ch)
}

func kernelDone(x any) {
	ch := x.(*Channel)
	d := ch.dev
	c := ch.kc
	ch.kc = nil
	d.compute.Release()
	d.kernelsRun++
	ch.sp.EndEvent(trace.Event{Kind: trace.KindKernel, Name: c.spec.Name, Stream: ch.id, Seq: c.seq})
	ch.kpool.Put(c)
	ch.completed.Add()
	chanNext(ch)
}

func copyDispatched(x any) {
	ch := x.(*Channel)
	ch.sp = ch.trk.BeginEvent("memcpyAsync").Bytes(ch.cc.bytes)
	// Zero-byte copies (async D2D markers) complete inline, so the flag
	// must be down before the call; a real transfer always crosses at
	// least one DMA sleep, so the assignment lands before copyLanded runs.
	ch.managed = false
	ch.managed = ch.dev.TransferHDA(ch.a, ch.cc.dir, ch.cc.bytes, ch.cc.pinned, copyLanded, ch)
}

func copyLanded(x any) {
	ch := x.(*Channel)
	c := ch.cc
	ch.cc = nil
	kind := c.kind
	if ch.managed {
		// Nsight labels CC "pinned" transfers as managed D2D.
		kind = trace.KindMemcpyD2D
	}
	ch.sp.EndEvent(trace.Event{
		Kind: kind, Name: "memcpyAsync", Stream: ch.id, Bytes: c.bytes, Managed: ch.managed,
	})
	ch.cpool.Put(c)
	ch.completed.Add()
	chanNext(ch)
}

// TransferHD moves bytes between host and device memory, charging the
// calling process. The protection mode owns the copy-path transform
// (Sec. VI-A plus the extended modes):
//
//	off pinned:        direct chunked DMA at link rate.
//	off pageable:      staging memcpy + DMA per chunk.
//	tdx-h100 (any):    encrypt into the bounce buffer + DMA per chunk
//	                   (H2D), or DMA + decrypt (D2H). "Pinned" host memory
//	                   is demoted to this same encrypted-paging path, which
//	                   is why pinned and pageable converge in CC mode
//	                   (Observation 1); the return value reports that the
//	                   transfer should be labelled managed.
//	tee-io-*:          direct or serialized-bridge DMA (hardware IDE).
func (d *Device) TransferHD(p *sim.Proc, dir pcie.Direction, bytes int64, pinned bool) (managed bool) {
	if bytes <= 0 {
		return false
	}
	return d.mode.Transfer(d.port, p, dir, bytes, d.params.ChunkBytes, pinned)
}

// TransferHDA is the continuation form of TransferHD; the managed flag is
// policy, not timing, so it is returned synchronously.
func (d *Device) TransferHDA(a *sim.Actor, dir pcie.Direction, bytes int64, pinned bool, step func(any), state any) (managed bool) {
	if bytes <= 0 {
		step(state)
		return false
	}
	return d.mode.TransferA(d.port, a, dir, bytes, d.params.ChunkBytes, pinned, step, state)
}

// TransferDDA is a device-to-device blit through L2/HBM, then runs
// step(state); CC does not touch it (HBM is inside the trust boundary).
func (d *Device) TransferDDA(a *sim.Actor, bytes int64, step func(any), state any) {
	if bytes <= 0 {
		step(state)
		return
	}
	a.Sleep(2*time.Microsecond+units.StreamDuration(bytes, d.params.BlitGBps), step, state)
}

type waitCmd struct {
	on *sim.Signal
}

func (waitCmd) isCommand() {}

// SubmitWait enqueues a dependency barrier: the channel stalls until the
// given signal fires (the device half of cudaStreamWaitEvent).
func (ch *Channel) SubmitWait(on *sim.Signal) { ch.put(waitCmd{on: on}) }
