// Package cuda implements a CUDA-like runtime API over the simulated
// system: memory management, synchronous and asynchronous copies, kernel
// launches, streams, and graphs. Workloads are written against this API
// exactly as a CUDA application would be, and every call both advances the
// simulated clock through the mechanisms of the layer below and records
// Nsight-style trace events.
package cuda

import (
	"fmt"

	"hccsim/internal/ccmode"
	"hccsim/internal/gpu"
	"hccsim/internal/hbm"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
	"hccsim/internal/uvm"
)

// Runtime is one simulated guest (VM or TD) with one GPU attached.
type Runtime struct {
	eng       *sim.Engine
	pl        *tdx.Platform
	link      *pcie.Link
	dev       *gpu.Device
	mode      ccmode.Mode
	tracer    *trace.Tracer
	params    Params
	uvmParams uvm.Params

	// obs is the attached observability layer (nil when tracing is off)
	// and api its host-API timeline for blocking calls like cudaMemcpy.
	obs *obs.Observer
	api obs.Track

	moduleSeen map[string]bool
	launches   int
	inited     bool

	memcpyFrames sim.FramePool[memcpyFrame]

	secondary []secondaryDevice
	nvlink    NVLinkParams
}

// New builds a full system (platform, link, HBM, UVM, device) from cfg. The
// protection mode is resolved here by name (Config.Mode, empty meaning off),
// validated against the hardware platform's mode set, and threaded into every
// layer. It panics on an unknown Config.Mode or Config.Platform name or an
// illegal mode×platform pair, the same fatal-config contract as the substrate
// constructors below it.
func New(eng *sim.Engine, cfg Config) *Runtime {
	mode, err := cfg.ResolveMode()
	if err != nil {
		panic("cuda: " + err.Error())
	}
	prof, err := cfg.ResolvePlatform()
	if err != nil {
		panic("cuda: " + err.Error())
	}
	if err := prof.ValidateMode(mode); err != nil {
		panic("cuda: " + err.Error())
	}
	pl := tdx.NewPlatform(eng, mode, cfg.TDX)
	link := pcie.NewLink(eng, cfg.PCIe)
	mem := hbm.NewAllocator(cfg.HBM)
	tracer := trace.New()
	mgr := uvm.NewManager(eng, pl, link, cfg.UVM)
	mgr.SetTracer(tracer)
	dev := gpu.New(eng, pl, link, mem, mgr, tracer, cfg.GPU)
	return &Runtime{
		eng: eng, pl: pl, link: link, dev: dev, mode: mode, tracer: tracer,
		params:     cfg.Host,
		uvmParams:  cfg.UVM,
		moduleSeen: make(map[string]bool),
	}
}

// SetObserver attaches the observability layer to the runtime and every
// substrate below it in a fixed order — host API, platform crypto/bounce,
// PCIe link, device channels, UVM — so track registration, and with it
// exported track ordering, never depends on which paths a run exercises.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	rt.obs = o
	rt.api = o.Track("cuda-api")
	rt.pl.SetObserver(o)
	rt.link.SetObserver(o)
	rt.dev.SetObserver(o)
	rt.dev.UVM().SetObserver(o)
}

// Observer returns the attached observability layer, or nil.
func (rt *Runtime) Observer() *obs.Observer { return rt.obs }

// PublishMetrics snapshots the counters of every layer into the observer's
// metrics registry as end-of-run gauges. Safe to call repeatedly (gauges
// overwrite) and a no-op without an observer.
func (rt *Runtime) PublishMetrics() {
	if rt.obs == nil {
		return
	}
	reg := rt.obs.Metrics()
	set := func(name, unit string, v int64) {
		reg.MustGauge(name, unit).Set(float64(v))
	}
	es := rt.eng.Stats()
	set("sim.events_fired", "count", int64(es.Fired))
	set("sim.actor_steps", "count", int64(es.ActorSteps))
	set("sim.handoffs", "count", int64(es.Handoffs))
	ts := rt.pl.Stats()
	set("tdx.hypercalls", "count", int64(ts.Hypercalls))
	set("tdx.vmexits", "count", int64(ts.VMExits))
	set("tdx.mmios", "count", int64(ts.MMIOs))
	set("tdx.bytes_encrypted", "bytes", ts.BytesEncrypted)
	set("tdx.bytes_decrypted", "bytes", ts.BytesDecrypted)
	set("tdx.bytes_staged", "bytes", ts.BytesStaged)
	set("tdx.encrypt_time", "ns", int64(ts.EncryptTime))
	set("tdx.decrypt_time", "ns", int64(ts.DecryptTime))
	set("pcie.h2d_bytes", "bytes", rt.link.BytesMoved(pcie.H2D))
	set("pcie.d2h_bytes", "bytes", rt.link.BytesMoved(pcie.D2H))
	set("pcie.h2d_transfers", "count", int64(rt.link.Transfers(pcie.H2D)))
	set("pcie.d2h_transfers", "count", int64(rt.link.Transfers(pcie.D2H)))
	set("pcie.h2d_busy", "ns", int64(rt.link.Busy(pcie.H2D)))
	set("pcie.d2h_busy", "ns", int64(rt.link.Busy(pcie.D2H)))
	set("pcie.bridge_busy", "ns", int64(rt.link.BridgeBusy()))
	set("gpu.kernels_run", "count", int64(rt.dev.KernelsRun()))
	us := rt.dev.UVM().Stats()
	set("uvm.fault_batches", "count", int64(us.FaultBatches))
	set("uvm.pages_migrated", "count", us.PagesMigrated)
	set("uvm.bytes_to_gpu", "bytes", us.BytesToGPU)
	set("uvm.bytes_to_host", "bytes", us.BytesToHost)
	set("uvm.evictions", "count", us.Evictions)
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Tracer returns the event recorder.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// Platform returns the CPU-TEE substrate.
func (rt *Runtime) Platform() *tdx.Platform { return rt.pl }

// Device returns the GPU model.
func (rt *Runtime) Device() *gpu.Device { return rt.dev }

// Link returns the PCIe link.
func (rt *Runtime) Link() *pcie.Link { return rt.link }

// Params returns the host-side constants.
func (rt *Runtime) Params() Params { return rt.params }

// CC reports whether confidential computing is enabled.
func (rt *Runtime) CC() bool { return rt.mode.CC() }

// Mode returns the resolved protection mode.
func (rt *Runtime) Mode() ccmode.Mode { return rt.mode }

// Context binds the runtime to a host process: all API calls charge time to
// that process, mirroring a single-threaded CUDA application.
type Context struct {
	rt      *Runtime
	p       *sim.Proc
	def     *Stream
	streams []*Stream
}

// Bind creates a context for the host process p.
func (rt *Runtime) Bind(p *sim.Proc) *Context {
	c := &Context{rt: rt, p: p}
	c.def = c.newStream() // the default stream
	return c
}

// Proc returns the bound host process.
func (c *Context) Proc() *sim.Proc { return c.p }

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Stream is a CUDA stream: an ordered queue of device work backed by one
// GPU channel, with an in-flight launch window that throttles the host.
type Stream struct {
	ctx     *Context
	ch      *gpu.Channel
	pending []*sim.Signal
}

func (c *Context) newStream() *Stream {
	s := &Stream{ctx: c, ch: c.rt.dev.NewChannel()}
	c.streams = append(c.streams, s)
	return s
}

// StreamCreate creates a new stream, charging the API cost.
func (c *Context) StreamCreate() *Stream {
	c.p.Sleep(c.rt.params.StreamCreateSW)
	c.rt.pl.MMIO(c.p) // channel setup ioctl
	return c.newStream()
}

// Default returns the default stream.
func (c *Context) Default() *Stream { return c.def }

// ID returns the stream's channel id, as shown in traces.
func (s *Stream) ID() int { return s.ch.ID() }

// throttle blocks while the stream's in-flight window is full. The wait
// happens before the next launch API starts, so the analyzer sees it as
// launch queuing time (LQT), matching the paper's decomposition.
func (s *Stream) throttle() {
	limit := s.ctx.rt.params.RingSlots
	for len(s.pending) >= limit {
		s.pending[0].Wait(s.ctx.p)
		s.prune()
	}
}

func (s *Stream) prune() {
	keep := s.pending[:0]
	for _, sig := range s.pending {
		if !sig.Fired() {
			keep = append(keep, sig)
		}
	}
	s.pending = keep
}

// track registers a submitted command for window accounting.
func (s *Stream) track(sig *sim.Signal) {
	s.pending = append(s.pending, sig)
}

// Synchronize blocks until all work submitted to the stream has completed.
func (s *Stream) Synchronize() {
	c := s.ctx
	start := c.p.Now()
	c.p.Sleep(c.rt.params.SyncSW)
	if last := s.ch.Last(); last != nil {
		last.Wait(c.p)
	}
	s.prune()
	c.rt.tracer.Record(trace.Event{
		Kind: trace.KindSync, Name: "cudaStreamSynchronize", Stream: s.ID(),
		Start: start, End: c.p.Now(),
	})
}

// Sync is cudaDeviceSynchronize: waits for every stream this context
// created (the runtime tracks them through contexts' streams lazily via
// markers on each stream's channel).
func (c *Context) Sync() {
	start := c.p.Now()
	c.p.Sleep(c.rt.params.SyncSW)
	for _, s := range c.allStreams() {
		if last := s.ch.Last(); last != nil {
			last.Wait(c.p)
		}
		s.prune()
	}
	c.rt.tracer.Record(trace.Event{
		Kind: trace.KindSync, Name: "cudaDeviceSynchronize", Stream: -1,
		Start: start, End: c.p.Now(),
	})
}

// allStreams returns every stream the context has created.
func (c *Context) allStreams() []*Stream { return c.streams }

// Metrics analyzes the trace so far.
func (rt *Runtime) Metrics() trace.Metrics { return rt.tracer.Analyze() }

// String describes the runtime configuration.
func (rt *Runtime) String() string {
	return fmt.Sprintf("cuda.Runtime{%s}", rt.mode.Name())
}
