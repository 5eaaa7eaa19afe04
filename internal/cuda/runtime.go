// Package cuda implements a CUDA-like runtime API over the simulated
// system: memory management, synchronous and asynchronous copies, kernel
// launches, streams, and graphs. Workloads are written against this API
// exactly as a CUDA application would be, and every call both advances the
// simulated clock through the mechanisms of the layer below and records
// Nsight-style trace events into the run's one recorder (SetObserver).
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
	params    Params
	uvmParams uvm.Params

	// rec is the run's recorder (nil when nothing records) and api its
	// host-API timeline for blocking calls like cudaMemcpy.
	rec *obs.Observer
	api obs.Track

	moduleSeen map[string]bool
	launches   int
	inited     bool

	memcpyFrames sim.FramePool[memcpyFrame]
	// copyCosts holds the learned cost of each copy key; learning is set
	// while one copy runs its chain to learn, and learn is its snapshot
	// (see memcpyKicked). Each runtime learns its own: nothing is shared
	// across runtimes or runs.
	copyCosts map[int64]*copyCost
	learning  bool
	learn     copyLearn

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
	mgr := uvm.NewManager(eng, pl, link, cfg.UVM)
	rt := &Runtime{
		eng: eng, pl: pl, link: link, mode: mode,
		dev:        gpu.New(eng, pl, link, mem, mgr, cfg.GPU),
		params:     cfg.Host,
		uvmParams:  cfg.UVM,
		moduleSeen: make(map[string]bool),
	}
	rt.SetObserver(obs.NewNsight(eng))
	return rt
}

// SetObserver makes o the run's one recorder in place of the Nsight-only
// one New attaches, which figure and workload analyses read; nil records
// nothing. It attaches o to every layer in a fixed order — host API,
// platform crypto/bounce, PCIe link, device channels, UVM — so exported
// track order never depends on which paths a run exercises.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	rt.rec = o
	rt.api = o.Track("cuda-api")
	rt.pl.SetObserver(o)
	rt.link.SetObserver(o)
	rt.dev.SetObserver(o)
	rt.dev.UVM().SetObserver(o)
}

// PublishMetrics snapshots the counters of every layer into the observer's
// end-of-run metrics. Safe to call repeatedly (values overwrite) and a
// no-op without an observer (none, or the Nsight-only recorder).
func (rt *Runtime) PublishMetrics() {
	reg := rt.rec.Metrics()
	if reg == nil {
		return
	}
	set := func(name, unit string, v int64) {
		reg.Set(name, unit, float64(v))
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

// Tracer returns the Nsight view of the run's recorder, nil after
// SetObserver(nil).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.rec.Tracer() }

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
// GPU channel, whose in-flight command count throttles the host.
type Stream struct {
	ctx *Context
	ch  *gpu.Channel
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

// throttle blocks while the stream's ring of in-flight commands is full,
// one wait per completion it needs. The wait happens before the next
// launch API starts, so the analyzer sees it as launch queuing time (LQT),
// matching the paper's decomposition.
func (s *Stream) throttle() {
	for s.ch.InFlight() >= s.ctx.rt.params.RingSlots {
		s.ch.WaitOldest(s.ctx.p)
	}
}

// Synchronize blocks until all work submitted to the stream has completed.
func (s *Stream) Synchronize() {
	c := s.ctx
	start := c.p.Now()
	c.p.Sleep(c.rt.params.SyncSW)
	s.ch.WaitIdle(c.p)
	c.rt.Tracer().Record(trace.Event{
		Kind: trace.KindSync, Name: "cudaStreamSynchronize", Stream: s.ID(),
		Start: start, End: c.p.Now(),
	})
}

// Sync is cudaDeviceSynchronize: waits, stream by stream, until every
// stream this context created has completed its work.
func (c *Context) Sync() {
	start := c.p.Now()
	c.p.Sleep(c.rt.params.SyncSW)
	for _, s := range c.allStreams() {
		s.ch.WaitIdle(c.p)
	}
	c.rt.Tracer().Record(trace.Event{
		Kind: trace.KindSync, Name: "cudaDeviceSynchronize", Stream: -1,
		Start: start, End: c.p.Now(),
	})
}

// allStreams returns every stream the context has created.
func (c *Context) allStreams() []*Stream { return c.streams }

// Metrics analyzes the trace so far.
func (rt *Runtime) Metrics() trace.Metrics { return rt.Tracer().Analyze() }

// String describes the runtime configuration.
func (rt *Runtime) String() string {
	return fmt.Sprintf("cuda.Runtime{%s}", rt.mode.Name())
}
