// Package hccsim is a discrete-event simulator of a CPU-GPU confidential
// computing system — an Intel TDX trust domain with an H100-class GPU
// passed through — built to reproduce the ISPASS 2025 paper "Dissecting
// Performance Overheads of Confidential Computing on GPU-based Systems".
//
// The package is the public facade over the internal layers:
//
//	sim       deterministic discrete-event engine
//	swcrypto  software AES-GCM / GHASH / AES-XTS substrate
//	tdx       trust-domain model (hypercalls, bounce buffers, SEPT, TME-MK)
//	pcie/hbm  interconnect and device memory
//	gpu/gmmu  command processor, engines, kernel roofline
//	uvm       unified virtual memory and encrypted paging
//	cuda      CUDA-like runtime API (the surface applications program to)
//	trace     Nsight-style event recording and KLO/LQT/KQT/KET analysis
//	core      the paper's Section V performance model
//	workloads Rodinia/Polybench/UVMBench/GraphBIG/Tigr analogues
//	nn        CNN training and Llama-3-8B inference models
//	figures   one generator per paper figure
//
// A minimal session:
//
//	cfg, err := hccsim.Configure(hccsim.Spec{Mode: "tdx-h100"}) // CC on
//	if err != nil {
//	    log.Fatal(err)
//	}
//	sys := hccsim.NewSystem(cfg)
//	elapsed := sys.Run(func(c *hccsim.Context) {
//	    h := c.HostBuffer("in", 64<<20)
//	    d := c.Malloc("buf", 64<<20)
//	    c.Memcpy(d, h, 64<<20)
//	    c.Launch(hccsim.KernelSpec{Name: "k", FLOPs: 1e10, MemBytes: 128 << 20,
//	        Blocks: 2048, ThreadsPerBlock: 256}, nil)
//	    c.Sync()
//	    c.Free(d)
//	})
//	model := sys.Model() // P = (1-α)A + B + (1-β)C + D decomposition
package hccsim

import (
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/ccmode"
	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/figures"
	"hccsim/internal/gpu"
	"hccsim/internal/nn"
	"hccsim/internal/platform"
	"hccsim/internal/serve"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

// Re-exported types: the facade aliases the working types of the internal
// layers so applications in this module program against one import.
type (
	// Config assembles all layer parameters of one simulated system.
	Config = cuda.Config
	// Context is the CUDA-like API surface bound to a host process.
	Context = cuda.Context
	// Buffer is a device, host or managed allocation.
	Buffer = cuda.Buffer
	// Stream is a CUDA stream.
	Stream = cuda.Stream
	// KernelSpec declares a kernel's work (roofline or fixed duration).
	KernelSpec = gpu.KernelSpec
	// ManagedAccess declares UVM ranges a kernel touches.
	ManagedAccess = gpu.ManagedAccess
	// Model is the paper's Section V performance-model decomposition.
	Model = core.Model
	// Metrics are per-run KLO/LQT/KQT/KET and copy/alloc aggregates.
	Metrics = trace.Metrics
	// Table is one reproduced figure.
	Table = figures.Table
	// Workload is a benchmark application specification.
	Workload = workloads.Spec
	// TrainResult is one CNN training measurement (Train).
	TrainResult = nn.TrainResult
	// LLMResult is one LLM serving measurement (Serve).
	LLMResult = nn.LLMResult
	// ServeConfig describes one request-level serving-traffic experiment
	// (ServeTraffic): open-loop arrivals, continuous batching, KV-cache
	// pressure and SLO accounting under a protection mode.
	ServeConfig = serve.Config
	// ServeReport is the outcome of one ServeTraffic run.
	ServeReport = serve.Report
	// ServeCapacity is the result of a ServeMaxQPS capacity search.
	ServeCapacity = serve.Capacity
	// ServeSLO is the latency objective of a ServeConfig.
	ServeSLO = serve.SLO
	// LengthDist is a token-length distribution of a ServeConfig.
	LengthDist = serve.LengthDist
	// Job is one independent simulation in a batch sweep (see RunJobs).
	Job = batch.Job
	// JobResult is one completed sweep job.
	JobResult = batch.Result
	// Override names one config parameter a sweep job changes.
	Override = batch.Override
)

// Modes lists the canonical protection-mode names.
func Modes() []string { return ccmode.Names() }

// Platforms lists the canonical hardware-platform names: "h100-tdx" is the
// Table I testbed; the registry adds projected systems such as
// "b300-bridge" and "gh200-c2c".
func Platforms() []string { return platform.Names() }

// System is one simulated guest (legacy VM or TD) with a GPU attached.
type System struct {
	eng *sim.Engine
	rt  *cuda.Runtime
	obs *Observer // attached by Observe; nil = tracing off
	ran bool
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) *System {
	eng := sim.NewEngine()
	return &System{eng: eng, rt: cuda.New(eng, cfg)}
}

// CC reports whether the system runs in confidential-computing mode.
func (s *System) CC() bool { return s.rt.CC() }

// Mode returns the canonical name of the system's protection mode.
func (s *System) Mode() string { return s.rt.Mode().Name() }

// Run executes app as the host program and returns the simulated elapsed
// time. Run may be called once per System — the engine, trace and device
// state are consumed by the run — so build a fresh System per run; a second
// call panics (RunE returns ErrRunConsumed instead for callers that prefer
// an error).
func (s *System) Run(app func(c *Context)) time.Duration {
	d, err := s.RunE(app)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Metrics analyzes the recorded trace (valid after Run).
func (s *System) Metrics() Metrics { return s.rt.Metrics() }

// Model fits the paper's performance model to the recorded trace.
func (s *System) Model() Model { return core.Decompose(s.rt.Tracer()) }

// Tracer exposes the raw Nsight-style event trace.
func (s *System) Tracer() *trace.Tracer { return s.rt.Tracer() }

// Runtime exposes the underlying CUDA-like runtime for advanced use
// (call-stack reports, substrate statistics).
func (s *System) Runtime() *cuda.Runtime { return s.rt }

// CompareModes runs the same application unprotected and protected and
// returns both fitted models plus the component-wise protected/base ratios.
// The protected run uses cfg's own protection mode when it is a CC mode,
// and the platform's native CC mode otherwise (tdx-h100 on the default
// h100-tdx platform), so a cfg prepared for any protected mode compares that
// mode against its off baseline, and an off config on any platform compares
// that platform's native protection against off.
func CompareModes(cfg Config, app func(c *Context)) (base, cc Model, ratio core.Ratio) {
	off, on := cfg, cfg
	off.Mode = "off"
	if m, err := cfg.ResolveMode(); err != nil || !m.CC() {
		if prof, err := cfg.ResolvePlatform(); err == nil {
			on.Mode = prof.NativeMode()
		}
	}
	sb := NewSystem(off)
	sb.Run(app)
	sc := NewSystem(on)
	sc.Run(app)
	base = sb.Model()
	cc = sc.Model()
	return base, cc, core.Compare(base, cc)
}

// Workloads returns the benchmark suite (Rodinia/Polybench/UVMBench/
// GraphBIG/Tigr analogues).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName looks up one application.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// FigureIDs lists every reproducible figure.
func FigureIDs() []string { return figures.IDs() }

// Figure reproduces one paper figure by id (e.g. "fig5", "fig13").
func Figure(id string) (Table, error) { return figures.Generate(id) }

// ServeTraffic runs one request-level LLM serving experiment: seeded
// open-loop arrivals through a continuous-batching scheduler with KV-cache
// accounting, under the config's protection mode. It measures what the
// steady-state decode numbers of Serve (Fig. 14) leave out — queueing,
// TTFT inflation, preemption swap traffic, and SLO attainment under load.
// The zero value of most ServeConfig fields resolves to documented defaults;
// cfg.Mode or cfg.System picks the protection mode.
func ServeTraffic(cfg ServeConfig) (ServeReport, error) { return serve.Run(cfg) }

// ServeMaxQPS binary-searches the maximum offered request rate at which the
// configuration still meets its SLO attainment target — the capacity a
// deployment loses to each protection mode.
func ServeMaxQPS(cfg ServeConfig) (ServeCapacity, error) { return serve.FindCapacity(cfg) }

// RunJobs executes a batch of sweep jobs on a bounded worker pool with
// result caching: parallel <= 0 uses GOMAXPROCS, cacheDir "" keeps the
// cache in memory only. Results keep submission order and are
// byte-identical whether fresh, cached, or run at any parallelism.
func RunJobs(jobs []Job, parallel int, cacheDir string) ([]JobResult, error) {
	results, _, err := batch.Run(jobs, parallel, cacheDir)
	return results, err
}

// UnknownPrecisionError reports an unrecognized CNN precision name.
type UnknownPrecisionError struct{ Precision string }

func (e *UnknownPrecisionError) Error() string {
	return "hccsim: unknown precision " + e.Precision + " (want fp32, amp or fp16)"
}

// UnknownBackendError reports an unrecognized LLM serving backend name.
type UnknownBackendError struct{ Backend string }

func (e *UnknownBackendError) Error() string {
	return "hccsim: unknown LLM backend " + e.Backend + " (want hf or vllm)"
}

// UnknownQuantError reports an unrecognized LLM quantization name.
type UnknownQuantError struct{ Quant string }

func (e *UnknownQuantError) Error() string {
	return "hccsim: unknown quantization " + e.Quant + " (want bf16 or awq)"
}
