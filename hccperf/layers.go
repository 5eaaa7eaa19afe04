package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/ccmode"
	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/nn"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/serve"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

// layerMetric is one per-layer metric, with the end-to-end metric it
// should move and the workload where it should (and where it should not).
// counter marks a deterministic per-pass count.
type layerMetric struct {
	name, unit, better string
	counter            bool
	moves, on          string
}

// The per-layer metrics, in the order BENCHMARK.json lists them; a test
// keeps the two in step. Microbenchmarks each report _ns/_us/_ms per
// operation and _allocs per operation. They carry over the metrics of the
// hccbench -json suite: engine_schedule_fire is sim.schedule_fire_ns,
// proc_context_switch sim.proc_switch_ns, actor_step sim.actor_step_ns,
// queue_put_get sim.queue_op_ns, mode_dispatch ccmode.dispatch_ns,
// obs_disabled_overhead cuda.memcpy_4k_ns and serve_steady_state
// serve.host_us_per_iter.
var layerMetrics = concat(
	[]layerMetric{
		{"sim.events_fired", "count", "lower", true, "pass_s, cpu_s", "all (exact per pass)"},
		{"sim.events_scheduled", "count", "lower", true, "pass_s, cpu_s", "all (exact per pass)"},
		{"sim.handoffs", "count", "lower", true, "pass_s, cpu_s", "campaign (few on serve)"},
		{"sim.actor_steps", "count", "lower", true, "pass_s, cpu_s", "serve, sweep"},
		{"sim.allocs_avoided", "count", "higher", true, "alloc_mb", "all (exact per pass)"},
		{"sim.host_ns_per_event", "ns", "lower", false, "pass_s, cpu_s", "all"},
	},
	micro("sim.schedule_fire_ns", "ns", "pass_s, cpu_s", "all"),
	micro("sim.proc_switch_ns", "ns", "pass_s, cpu_s", "campaign (few on serve)"),
	micro("sim.actor_step_ns", "ns", "pass_s, cpu_s", "serve"),
	micro("sim.queue_op_ns", "ns", "pass_s, cpu_s", "campaign, sweep"),
	micro("nn.train_sim_ms", "ms", "pass_s, job_tail_ms", "campaign (none on serve, sweep)"),
	micro("cuda.memcpy_4k_ns", "ns", "pass_s, job_tail_ms", "campaign, sweep (none on serve)"),
	micro("workloads.execute_ms", "ms", "pass_s, job_tail_ms", "campaign, sweep (none on serve)"),
	micro("tdx.crypt_bounce_4k_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("tdx.crypt_bounce_2m_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("pcie.transfer_2m_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("pcie.bridge_transfer_2m_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("gpu.kernel_submit_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("gpu.copy_submit_ns", "ns", "pass_s", "campaign, sweep cold cells"),
	micro("uvm.managed_app_ms", "ms", "pass_s", "campaign, sweep cold cells"),
	micro("ccmode.dispatch_ns", "ns", "job_tail_ms, pass_s", "serve above-knee jobs (none below the knee)"),
	micro("ccmode.transfer_2m_ns", "ns", "job_tail_ms, pass_s", "serve above-knee jobs (none below the knee)"),
	micro("ccmode.pipelined_transfer_2m_ns", "ns", "job_tail_ms, pass_s", "serve above-knee jobs (none below the knee)"),
	micro("core.decompose_ms", "ms", "pass_s", "campaign, sweep (none on serve)"),
	micro("serve.host_us_per_iter", "us", "pass_s, job_p50_ms, job_tail_ms", "serve (small on campaign, none on sweep)"),
	[]layerMetric{
		{"serve.iterations", "count", "lower", true, "pass_s, job_p50_ms", "serve"},
		{"serve.preemptions", "count", "lower", true, "job_tail_ms", "serve above-knee jobs"},
		{"serve.swap_bytes", "B", "lower", true, "job_tail_ms", "serve above-knee jobs"},
	},
	micro("batch.job_key_us", "us", "job_p50_ms", "sweep (none on serve)"),
	micro("batch.cache_get_us", "us", "job_p50_ms", "sweep (none on serve)"),
	micro("batch.cache_put_us", "us", "pass_s", "sweep (none on serve)"),
	[]layerMetric{
		{"batch.cache_hits", "count", "higher", true, "job_p50_ms", "sweep (none on serve)"},
		{"batch.cache_misses", "count", "lower", true, "pass_s", "sweep (none on serve)"},
		{"batch.cache_stores", "count", "lower", true, "pass_s", "sweep (none on serve)"},
		{"batch.hit_ratio", "ratio", "higher", false, "job_p50_ms", "sweep (none on serve)"},
		{"obs.enabled_overhead_ratio", "ratio", "lower", false, "none: tracing is off in timed runs", "all"},
	},
	micro("obs.chrome_export_ms", "ms", "none: tracing is off in timed runs", "all"),
	[]layerMetric{
		{"go.gc_cpu_share", "ratio", "lower", false, "cpu_s, alloc_mb, heap_peak_mb", "all"},
		{"bench.trace_overhead_ratio", "ratio", "lower", false, "cpu_s, alloc_mb, heap_peak_mb", "all"},
	},
	selfShares(),
)

var layerMetricByName = func() map[string]layerMetric {
	m := map[string]layerMetric{}
	for _, lm := range layerMetrics {
		m[lm.name] = lm
	}
	return m
}()

// profiledLayers are the simulator packages a CPU sample can be charged
// to, plus the runtime bucket for samples with no simulator frame.
var profiledLayers = []string{
	"batch", "ccmode", "core", "cuda", "figures", "gpu", "hbm", "nn", "obs", "pcie",
	"platform", "serve", "sim", "swcrypto", "tab", "tdx", "trace", "units", "uvm", "workloads",
	runtimeLayer,
}

// micro lists a microbenchmark's two metrics: its time per operation
// (named with its unit) and its heap allocations per operation.
func micro(name, unit, moves, on string) []layerMetric {
	return []layerMetric{
		{name, unit, "lower", false, moves, on},
		{allocsName(name, unit), "allocs", "lower", false, moves, on},
	}
}

// allocsName names the allocation companion of a timing metric:
// sim.schedule_fire_ns -> sim.schedule_fire_allocs.
func allocsName(name, unit string) string {
	return strings.Replace(name, "_"+unit, "_allocs", 1)
}

func selfShares() []layerMetric {
	var out []layerMetric
	for _, l := range profiledLayers {
		out = append(out, layerMetric{l + ".self_share", "ratio", "lower", false,
			"pass_s", "the workload where the share is largest"})
	}
	return out
}

func concat(groups ...[]layerMetric) []layerMetric {
	var out []layerMetric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// ---- microbenchmarks ----

// microReps is how many times each microbenchmark repeats; the median
// repetition is reported.
const microReps = 5

// meter times the measured section of one repetition and counts its heap
// allocations, excluding the repetition's own set-up.
type meter struct {
	t0      time.Time
	m0      uint64
	elapsed time.Duration
	allocs  uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *meter) start() { m.m0 = mallocs(); m.t0 = time.Now() }
func (m *meter) stop()  { m.elapsed = time.Since(m.t0); m.allocs = mallocs() - m.m0 }

var unitNames = map[time.Duration]string{time.Nanosecond: "ns", time.Microsecond: "us", time.Millisecond: "ms"}

// bench is one microbenchmark: run performs ops operations between
// m.start and m.stop.
type bench struct {
	name string // timing metric, e.g. "sim.schedule_fire_ns"
	unit time.Duration
	ops  int
	run  func(m *meter, ops int) error
}

// runMicros runs every layer microbenchmark, each inside a span, and
// returns their metrics. dir holds the batch cache microbenchmarks' files.
func runMicros(r *runner, dir string) ([]metric, error) {
	var out []metric
	var plainCopy float64
	for _, b := range microBenches(dir) {
		var perOp, allocs []float64
		for rep := 0; rep < microReps; rep++ {
			var m meter
			start := time.Now()
			if err := b.run(&m, b.ops); err != nil {
				return nil, fmt.Errorf("%s: %w", b.name, err)
			}
			r.span(0, b.name, start, time.Now())
			perOp = append(perOp, float64(m.elapsed)/float64(b.unit)/float64(b.ops))
			allocs = append(allocs, float64(m.allocs)/float64(b.ops))
		}
		v := median(perOp)
		switch b.name {
		case "cuda.memcpy_4k_ns":
			plainCopy = v
		case "obs.memcpy_4k_traced_ns":
			out = append(out, metric{Name: "obs.enabled_overhead_ratio", Value: ratio(v, plainCopy), Unit: "ratio",
				Note: "cuda.memcpy_4k with an observer attached / without"})
			continue
		}
		unit := unitNames[b.unit]
		note := fmt.Sprintf("median of %d repetitions", microReps)
		out = append(out,
			metric{Name: b.name, Value: v, Unit: unit, Note: note},
			metric{Name: allocsName(b.name, unit), Value: median(allocs), Unit: "allocs", Note: note})
	}
	return out, nil
}

// inProc runs body as the only process of a fresh engine.
func inProc(eng *sim.Engine, body func(p *sim.Proc)) {
	eng.Spawn("bench", body)
	eng.Run()
}

// tdxRuntime is a fresh system on the named platform under the named mode.
func tdxRuntime(platformName, mode string) (*cuda.Runtime, cuda.Config, error) {
	cfg, err := cuda.PlatformConfig(platformName, mode)
	if err != nil {
		return nil, cfg, err
	}
	return cuda.New(sim.NewEngine(), cfg), cfg, nil
}

// benchApp is the application the whole-run microbenchmarks use: the
// trace-heavy one hcctrace demonstrates.
const benchApp = "sc"

func microBenches(dir string) []bench {
	const mib = 1 << 20
	ns, us, msec := time.Nanosecond, time.Microsecond, time.Millisecond
	return []bench{
		{"sim.schedule_fire_ns", ns, 500000, func(m *meter, ops int) error {
			const per = 5000
			e := sim.NewEngine()
			fn := func() {}
			for i := 0; i < per; i++ { // grow the event arena first
				e.Schedule(sim.Duration(i), fn)
			}
			e.Run()
			m.start()
			for r := 0; r < ops/per; r++ {
				for i := 0; i < per; i++ {
					e.Schedule(sim.Duration(i), fn)
				}
				e.Run()
			}
			m.stop()
			return nil
		}},
		{"sim.proc_switch_ns", ns, 100000, func(m *meter, ops int) error {
			inProc(sim.NewEngine(), func(p *sim.Proc) {
				for i := 0; i < 1000; i++ {
					p.Sleep(time.Nanosecond)
				}
				m.start()
				for i := 0; i < ops; i++ {
					p.Sleep(time.Nanosecond)
				}
				m.stop()
			})
			return nil
		}},
		{"sim.actor_step_ns", ns, 1000000, func(m *meter, ops int) error {
			e := sim.NewEngine()
			e.SpawnActor("stepper", func(a *sim.Actor) {
				stepBenchStep(&stepBench{a: a, i: -1000, n: ops, m: m})
			})
			e.Run()
			return nil
		}},
		{"sim.queue_op_ns", ns, 1000000, func(m *meter, ops int) error {
			type cmd struct {
				kind  int
				bytes int64
			}
			q := sim.NewQueue[cmd](sim.NewEngine())
			m.start()
			for i := 0; i < ops; i++ {
				q.Put(cmd{kind: i & 3, bytes: int64(i)})
				q.TryGet()
			}
			m.stop()
			return nil
		}},
		{"nn.train_sim_ms", msec, 2, func(m *meter, ops int) error {
			model, err := nn.ModelByName("resnet50")
			if err != nil {
				return err
			}
			m.start()
			for i := 0; i < ops; i++ {
				nn.TrainSimulate(nn.TrainConfig{Model: model, Batch: 64, Precision: nn.FP32, Mode: "tdx-h100"})
			}
			m.stop()
			return nil
		}},
		{"cuda.memcpy_4k_ns", ns, 20000, func(m *meter, ops int) error { return memcpyBench(m, ops, nil) }},
		{"obs.memcpy_4k_traced_ns", ns, 20000, func(m *meter, ops int) error { return memcpyBench(m, ops, obs.New()) }},
		{"workloads.execute_ms", msec, 4, func(m *meter, ops int) error {
			spec, cfg, err := appConfig()
			if err != nil {
				return err
			}
			m.start()
			for i := 0; i < ops; i++ {
				workloads.Execute(spec, workloads.CopyExecute, cfg)
			}
			m.stop()
			return nil
		}},
		{"tdx.crypt_bounce_4k_ns", ns, 20000, func(m *meter, ops int) error { return cryptBounce(m, ops, 4096) }},
		{"tdx.crypt_bounce_2m_ns", ns, 20000, func(m *meter, ops int) error { return cryptBounce(m, ops, 2*mib) }},
		{"pcie.transfer_2m_ns", ns, 20000, func(m *meter, ops int) error {
			rt, _, err := tdxRuntime("h100-tdx", "tdx-h100")
			if err != nil {
				return err
			}
			inProc(rt.Engine(), func(p *sim.Proc) {
				m.start()
				for i := 0; i < ops; i++ {
					rt.Link().Transfer(p, pcie.H2D, 2*mib)
				}
				m.stop()
			})
			return nil
		}},
		{"pcie.bridge_transfer_2m_ns", ns, 20000, func(m *meter, ops int) error {
			rt, cfg, err := tdxRuntime("b300-bridge", "tee-io-bridge")
			if err != nil {
				return err
			}
			inProc(rt.Engine(), func(p *sim.Proc) {
				m.start()
				for i := 0; i < ops; i++ {
					rt.Link().BridgeTransfer(p, pcie.H2D, 2*mib, cfg.TDX.BridgeGBps, cfg.TDX.IDEPerTLP)
				}
				m.stop()
			})
			return nil
		}},
		{"gpu.kernel_submit_ns", ns, 20000, func(m *meter, ops int) error {
			return channelBench(m, ops, func(ch *gpu.Channel, i int) *sim.Signal {
				return ch.SubmitKernel(gpu.KernelSpec{Name: "k", Fixed: time.Microsecond}, i, false)
			})
		}},
		{"gpu.copy_submit_ns", ns, 20000, func(m *meter, ops int) error {
			return channelBench(m, ops, func(ch *gpu.Channel, _ int) *sim.Signal {
				return ch.SubmitCopy(trace.KindMemcpyH2D, pcie.H2D, 4096, true)
			})
		}},
		{"uvm.managed_app_ms", msec, 2, func(m *meter, ops int) error {
			cfg, err := cuda.PlatformConfig("h100-tdx", "tdx-h100")
			if err != nil {
				return err
			}
			spec := workloads.UVMSuite()[0]
			m.start()
			for i := 0; i < ops; i++ {
				workloads.Execute(spec, workloads.UVM, cfg)
			}
			m.stop()
			return nil
		}},
		{"ccmode.dispatch_ns", ns, 1000000, modeDispatch},
		{"ccmode.transfer_2m_ns", ns, 5000, func(m *meter, ops int) error { return modeTransfer(m, ops, "tdx-h100") }},
		{"ccmode.pipelined_transfer_2m_ns", ns, 5000, func(m *meter, ops int) error {
			return modeTransfer(m, ops, "tdx-h100+pipelined")
		}},
		{"core.decompose_ms", msec, 4, func(m *meter, ops int) error {
			spec, cfg, err := appConfig()
			if err != nil {
				return err
			}
			tr := workloads.Execute(spec, workloads.CopyExecute, cfg).Runtime.Tracer()
			m.start()
			for i := 0; i < ops; i++ {
				core.Decompose(tr)
			}
			m.stop()
			return nil
		}},
		{"serve.host_us_per_iter", us, 1, serveIterations},
		{"batch.job_key_us", us, 2000, func(m *meter, ops int) error {
			j := batch.WorkloadJob(benchApp, false, false, batch.Override{Param: pcieAxis, Value: 16})
			j.Mode = "tdx-h100"
			m.start()
			for i := 0; i < ops; i++ {
				if _, err := j.Key(); err != nil {
					return err
				}
			}
			m.stop()
			return nil
		}},
		{"batch.cache_put_us", us, 200, func(m *meter, ops int) error { return cacheBench(m, ops, dir, false) }},
		{"batch.cache_get_us", us, 200, func(m *meter, ops int) error { return cacheBench(m, ops, dir, true) }},
		{"obs.chrome_export_ms", msec, 2, func(m *meter, ops int) error {
			spec, cfg, err := appConfig()
			if err != nil {
				return err
			}
			o := obs.New()
			workloads.ExecuteObserved(spec, workloads.CopyExecute, cfg, o)
			m.start()
			for i := 0; i < ops; i++ {
				o.ChromeTrace()
			}
			m.stop()
			return nil
		}},
	}
}

func appConfig() (workloads.Spec, cuda.Config, error) {
	spec, err := workloads.ByName(benchApp)
	if err != nil {
		return spec, cuda.Config{}, err
	}
	cfg, err := cuda.PlatformConfig("h100-tdx", "tdx-h100")
	return spec, cfg, err
}

// stepBench drives sim.actor_step: warm-up sleeps (negative i), then n
// timed steps through the actor's inline resume path.
type stepBench struct {
	a    *sim.Actor
	i, n int
	m    *meter
}

func stepBenchStep(x any) {
	f := x.(*stepBench)
	if f.i == 0 {
		f.m.start()
	}
	if f.i == f.n {
		f.m.stop()
		f.a.Done()
		return
	}
	f.i++
	f.a.Sleep(time.Nanosecond, stepBenchStep, f)
}

// memcpyBench times blocking 4 KiB pinned host-to-device copies under
// tdx-h100, with the observer o attached when non-nil.
func memcpyBench(m *meter, ops int, o *obs.Observer) error {
	const copyBytes = 4096
	rt, _, err := tdxRuntime("h100-tdx", "tdx-h100")
	if err != nil {
		return err
	}
	if o != nil {
		o.Bind(rt.Engine())
		rt.SetObserver(o)
	}
	inProc(rt.Engine(), func(p *sim.Proc) {
		c := rt.Bind(p)
		dst := c.Malloc("bench.dst", copyBytes)
		src := c.MallocHost("bench.src", copyBytes)
		for i := 0; i < 500; i++ {
			c.Memcpy(dst, src, copyBytes)
		}
		m.start()
		for i := 0; i < ops; i++ {
			c.Memcpy(dst, src, copyBytes)
		}
		m.stop()
	})
	return nil
}

// cryptBounce times the tdx copy-path chain: reserve bounce space,
// encrypt, release.
func cryptBounce(m *meter, ops int, n int64) error {
	rt, _, err := tdxRuntime("h100-tdx", "tdx-h100")
	if err != nil {
		return err
	}
	pl := rt.Platform()
	inProc(rt.Engine(), func(p *sim.Proc) {
		m.start()
		for i := 0; i < ops; i++ {
			pl.BounceAcquire(p, n)
			pl.Encrypt(p, n)
			pl.BounceRelease(n)
		}
		m.stop()
	})
	return nil
}

// channelBench times one command submitted to a GPU channel and waited on.
func channelBench(m *meter, ops int, submit func(ch *gpu.Channel, i int) *sim.Signal) error {
	rt, _, err := tdxRuntime("h100-tdx", "tdx-h100")
	if err != nil {
		return err
	}
	ch := rt.Device().NewChannel()
	inProc(rt.Engine(), func(p *sim.Proc) {
		m.start()
		for i := 0; i < ops; i++ {
			submit(ch, i).Wait(p)
		}
		m.stop()
	})
	return nil
}

// modeDispatch times the protection-mode interface calls on the launch
// and fault hot paths, across every registered mode.
func modeDispatch(m *meter, ops int) error {
	var modes []ccmode.Mode
	for _, name := range ccmode.Names() {
		md, err := ccmode.ByName(name)
		if err != nil {
			return err
		}
		modes = append(modes, md)
	}
	var sink time.Duration
	var sinkInt int
	m.start()
	for i := 0; i < ops; i++ {
		md := modes[i%len(modes)]
		sink += md.LaunchPost(600, 1050)
		sinkInt += md.FaultBatch(64, 1) + md.FaultHypercalls(2)
		if md.SoftwareCryptoPath() {
			sinkInt++
		}
	}
	m.stop()
	if sink == 0 && sinkInt == 0 {
		return fmt.Errorf("mode dispatch produced no work")
	}
	return nil
}

// modeTransfer times one 2 MiB pinned host-to-device transfer through the
// named mode's copy path.
func modeTransfer(m *meter, ops int, mode string) error {
	md, err := ccmode.ByName(mode)
	if err != nil {
		return err
	}
	rt, cfg, err := tdxRuntime("h100-tdx", "tdx-h100")
	if err != nil {
		return err
	}
	port := tdx.NewPort(rt.Platform(), rt.Link())
	inProc(rt.Engine(), func(p *sim.Proc) {
		m.start()
		for i := 0; i < ops; i++ {
			md.Transfer(port, p, ccmode.H2D, 2<<20, cfg.GPU.ChunkBytes, true)
		}
		m.stop()
	})
	return nil
}

// serveIterations times one serving run at the knee and divides by its
// scheduler iterations; a first run fills the calibration memo.
func serveIterations(m *meter, ops int) error {
	cfg := serve.Config{Backend: "vllm", Quant: "bf16", Mode: "tdx-h100", RateQPS: 1.4}
	if _, err := serve.Run(cfg); err != nil {
		return err
	}
	m.start()
	rep, err := serve.Run(cfg)
	m.stop()
	if err != nil {
		return err
	}
	// Report per scheduler iteration, not per run.
	m.elapsed /= time.Duration(rep.Iterations)
	m.allocs /= uint64(rep.Iterations)
	return nil
}

// cacheBench stores ops distinct payloads into a fresh on-disk cache, or
// (get) reads them back through a second cache on the same directory, as
// a new sweep process would.
func cacheBench(m *meter, ops int, dir string, get bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(dir, "cache-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c, err := batch.NewCache(tmp)
	if err != nil {
		return err
	}
	payload := make([]byte, 2048)
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = digest(fmt.Sprint("cache-bench-", i)) + digest(fmt.Sprint(i))
	}
	if get {
		for _, k := range keys {
			if err := c.Put(k, payload); err != nil {
				return err
			}
		}
		if c, err = batch.NewCache(tmp); err != nil {
			return err
		}
	}
	m.start()
	for _, k := range keys {
		if get {
			if _, ok := c.Get(k); !ok {
				return fmt.Errorf("cache miss on a stored key")
			}
		} else if err := c.Put(k, payload); err != nil {
			return err
		}
	}
	m.stop()
	return nil
}
