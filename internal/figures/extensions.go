package figures

import (
	"fmt"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/nn"
	"hccsim/internal/pcie"
	"hccsim/internal/platform"
	"hccsim/internal/sim"
	"hccsim/internal/units"
	"hccsim/internal/workloads"
)

// The generators in this file go beyond the paper's figures into the
// directions its discussion sections open: the TEE-IO hardware fix
// (Sec. VI-A), AMD SEV-SNP as the other CPU TEE (Sec. II), parallelized
// software encryption (Sec. VIII, PipeLLM/Fastrack), UVM prefetching, and
// the CC-mode cudaGraph batching question Sec. VII-A explicitly leaves as
// future work.

// teeioConfig returns a CC config with the TDX Connect projection enabled,
// panicking on lookup failure — the mode name is a static literal, so a
// failure is a programming error, not an input error.
func teeioConfig() cuda.Config {
	cfg, err := cuda.NewConfig("tee-io-direct")
	if err != nil {
		panic(err)
	}
	return cfg
}

// snpConfig returns a CC config on the SEV-SNP cost model (the h100-snp
// platform profile: same GPU and link, GHCB-based CPU TEE), panicking on
// lookup failure — the platform and mode names are static literals, so a
// failure is a programming error, not an input error.
func snpConfig() cuda.Config {
	cfg, err := cuda.PlatformConfig("h100-snp", "tdx-h100")
	if err != nil {
		panic(err)
	}
	return cfg
}

// ExtTEEIO projects the paper's proposed hardware fix: PCIe TEE-IO / TDX
// Connect, where the GPU joins the TCB and DMA is hardware-encrypted at
// line rate. It compares bandwidth and end-to-end app time across legacy
// VM, stock TDX CC, SEV-SNP CC and TDX Connect.
func ExtTEEIO() Table {
	t := Table{
		ID:      "ext-teeio",
		Title:   "TEE-IO (TDX Connect) projection vs stock CC",
		Columns: []string{"metric", "legacy-vm", "tdx-cc", "snp-cc", "tdx-connect"},
	}
	// 1 GiB pinned H2D bandwidth under each platform.
	bw := func(cfg cuda.Config) float64 {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cfg)
		var dur time.Duration
		eng.Spawn("bw", func(p *sim.Proc) {
			c := rt.Bind(p)
			h := c.MallocHost("h", 1<<30)
			d := c.Malloc("d", 1<<30)
			start := p.Now()
			c.Memcpy(d, h, 1<<30)
			dur = time.Duration(p.Now() - start)
		})
		eng.Run()
		return units.RateGBps(1<<30, dur)
	}
	t.AddRow("pinned H2D GB/s",
		bw(cuda.DefaultConfig(false)), bw(cuda.DefaultConfig(true)), bw(snpConfig()), bw(teeioConfig()))

	// End-to-end time of two representative apps.
	for _, name := range []string{"3dconv", "srad"} {
		spec := mustWorkload(name)
		row := []interface{}{name + " end-to-end (ms)"}
		for _, cfg := range []cuda.Config{cuda.DefaultConfig(false), cuda.DefaultConfig(true), snpConfig(), teeioConfig()} {
			res := workloads.Execute(spec, workloads.CopyExecute, cfg)
			row = append(row, ms(time.Duration(res.End)))
		}
		t.AddRow(row...)
	}
	// A UVM app, where TEE-IO restores fault batching too.
	spec := mustWorkload("2dconv")
	row := []interface{}{"2dconv UVM end-to-end (ms)"}
	for _, cfg := range []cuda.Config{cuda.DefaultConfig(false), cuda.DefaultConfig(true), snpConfig(), teeioConfig()} {
		res := workloads.Execute(spec, workloads.UVM, cfg)
		row = append(row, ms(time.Duration(res.End)))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes,
		"the paper: \"TEE-IO technology offers a potential solution ... its adoption requires hardware replacement\" — this is that projection on the same workloads",
		"SEV-SNP trades cheaper exits (VMGEXIT) for dearer page-state changes (PVALIDATE/RMPUPDATE); the copy path stays software-crypto-bound either way")
	return t
}

// ExtCryptoWorkers evaluates parallelized copy-path encryption (the
// PipeLLM / Fastrack direction of Sec. VIII): CC H2D bandwidth and one
// copy-bound application as worker threads scale.
func ExtCryptoWorkers() Table {
	t := Table{
		ID:      "ext-cryptoworkers",
		Title:   "Parallel software encryption on the CC copy path",
		Columns: []string{"workers", "streamed-cc-h2d-GB/s", "bw-speedup", "3dconv-cc-ms (blocking copies)"},
	}
	var firstBW float64
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := cuda.DefaultConfig(true)
		cfg.TDX.CryptoWorkers = workers

		// Bandwidth: many in-flight chunks over streams so workers can
		// actually run in parallel.
		eng := sim.NewEngine()
		rt := cuda.New(eng, cfg)
		var dur time.Duration
		eng.Spawn("bw", func(p *sim.Proc) {
			c := rt.Bind(p)
			const total = 1 << 30
			const ways = 8
			h := c.MallocHost("h", total/ways)
			start := p.Now()
			for i := 0; i < ways; i++ {
				d := c.Malloc(fmt.Sprintf("d%d", i), total/ways)
				s := c.StreamCreate()
				c.MemcpyAsync(d, h, total/ways, s)
			}
			c.Sync()
			dur = time.Duration(p.Now() - start)
		})
		eng.Run()
		gbps := units.RateGBps(1<<30, dur)

		spec := mustWorkload("3dconv")
		res := workloads.Execute(spec, workloads.CopyExecute, cfg)
		if workers == 1 {
			firstBW = gbps
		}
		t.AddRow(workers, gbps, fmt.Sprintf("%.2fx", gbps/firstBW), ms(time.Duration(res.End)))
	}
	t.Notes = append(t.Notes,
		"multi-stream copies scale with workers until the PCIe link takes over; the 3dconv column is flat because blocking cudaMemcpy cannot use extra workers — exactly why Tan et al. modify the runtime library",
		"this is the software answer to Observation 2 that needs no hardware replacement")
	return t
}

// ExtGraphBatch answers the question Sec. VII-A leaves open (after Ekelund
// et al.): does the optimal cudaGraph batching level change under CC? An
// iterative application launches the same kernel 1024 times; graphs batch
// B launches per submission.
func ExtGraphBatch() Table {
	t := Table{
		ID:      "ext-graphbatch",
		Title:   "CUDA-graph launch batching for an iterative kernel (1024 iterations)",
		Columns: []string{"batch", "base-total-ms", "cc-total-ms", "cc/base"},
	}
	const iters = 1024
	run := func(cc bool, batch int) time.Duration {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(cc))
		var total time.Duration
		eng.Spawn("gb", func(p *sim.Proc) {
			c := rt.Bind(p)
			spec := gpu.KernelSpec{Name: "iterK", Fixed: 6 * time.Microsecond, CodeBytes: 64 << 10}
			c.Launch(spec, nil) // warm module + context
			c.Sync()
			start := p.Now()
			if batch == 1 {
				for i := 0; i < iters; i++ {
					c.Launch(spec, nil)
				}
			} else {
				specs := make([]gpu.KernelSpec, batch)
				for i := range specs {
					specs[i] = spec
				}
				g := c.GraphCreate(specs)
				for i := 0; i < iters/batch; i++ {
					g.Launch(nil)
				}
			}
			c.Sync()
			total = time.Duration(p.Now() - start)
		})
		eng.Run()
		return total
	}
	bestBase, bestCC := 0, 0
	bestBaseT, bestCCT := time.Duration(1<<62), time.Duration(1<<62)
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		bt := run(false, batch)
		ct := run(true, batch)
		t.AddRow(batch, ms(bt), ms(ct), float64(ct)/float64(bt))
		if bt < bestBaseT {
			bestBaseT, bestBase = bt, batch
		}
		if ct < bestCCT {
			bestCCT, bestCC = ct, batch
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"optimal batch: base B=%d, CC B=%d — graph creation amortizes against the (larger) CC launch tax, so CC favours equal or coarser batching; Ekelund et al.'s application-independent optimum shifts once launches carry hypercall-amortized costs",
		bestBase, bestCC))
	return t
}

// ExtPrefetch evaluates cudaMemPrefetchAsync against fault-driven UVM: the
// standard mitigation for encrypted paging that needs no code-structure
// change.
func ExtPrefetch() Table {
	t := Table{
		ID:      "ext-prefetch",
		Title:   "UVM prefetch vs fault-driven migration (128 MiB working set)",
		Columns: []string{"mode", "strategy", "kernel-KET-ms", "end-to-end-ms"},
	}
	const footprint = 128 << 20
	run := func(cc, prefetch bool) (ket, total time.Duration) {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(cc))
		eng.Spawn("pf", func(p *sim.Proc) {
			c := rt.Bind(p)
			m := c.MallocManaged("m", footprint)
			start := p.Now()
			if prefetch {
				c.Prefetch(m, footprint)
			}
			c.Launch(gpu.KernelSpec{Name: "k", Fixed: time.Millisecond,
				Managed: []gpu.ManagedAccess{{Range: m.Managed(), Bytes: footprint}}}, nil)
			c.Sync()
			total = time.Duration(p.Now() - start)
			c.Free(m)
		})
		eng.Run()
		ket = rt.Metrics().KET
		return
	}
	for _, cc := range []bool{false, true} {
		mode := "base"
		if cc {
			mode = "cc"
		}
		for _, prefetch := range []bool{false, true} {
			strategy := "fault-driven"
			if prefetch {
				strategy = "prefetch"
			}
			ket, total := run(cc, prefetch)
			t.AddRow(mode, strategy, ms(ket), ms(total))
		}
	}
	t.Notes = append(t.Notes,
		"prefetch turns encrypted paging back into a streaming encrypted copy: no per-fault hypercalls, full migration batches; kernel KET returns to near its non-UVM value")
	return t
}

// ExtPrimitives tabulates the raw TEE primitive costs (the Misono et al.
// style microbenchmarks behind Fig. 8's call-stack numbers).
func ExtPrimitives() Table {
	t := Table{
		ID:      "ext-primitives",
		Title:   "CPU-TEE primitive costs",
		Columns: []string{"primitive", "legacy-vm", "tdx", "sev-snp"},
	}
	td := platform.MustByName(platform.Default).TDX
	snp := platform.MustByName("h100-snp").TDX
	t.AddRow("guest exit round trip", td.VMExit, td.Hypercall, snp.Hypercall)
	t.AddRow("MMIO to passthrough GPU", td.MMIODirect, td.Hypercall, snp.Hypercall)
	t.AddRow("private-page accept (per 4K page)", "-", td.SEPTPerPage, snp.SEPTPerPage)
	t.AddRow("shared conversion (per 4K page)", "-", td.ConvertPerPage, snp.ConvertPerPage)
	t.AddRow("page scrub on free (per 4K page)", "-", td.ScrubPerPage, snp.ScrubPerPage)
	t.AddRow("DMA map via SWIOTLB (per transfer)", "-", td.DMAMapBase, snp.DMAMapBase)
	t.Notes = append(t.Notes,
		fmt.Sprintf("TDX hypercall / plain exit = %.1fx (paper cites >470%% overhead)",
			float64(td.Hypercall)/float64(td.VMExit)))
	return t
}

// ExtMultiGPU evaluates inter-GPU transfers under CC — the multi-GPU
// direction of the related-work section (Na et al., HPCA'24). Without a
// protected NVLink, CC peer traffic stages through the TD and is decrypted
// and re-encrypted in software; with NVLink both GPUs sit inside the
// attested TCB and the bridge runs at full rate in either mode.
func ExtMultiGPU() Table {
	t := Table{
		ID:      "ext-multigpu",
		Title:   "Inter-GPU transfer of 1 GiB (two H100s, one per socket)",
		Columns: []string{"path", "base-ms", "cc-ms", "cc/base", "base-GB/s", "cc-GB/s"},
	}
	const n = int64(1) << 30
	run := func(cc, nvlink bool) time.Duration {
		eng := sim.NewEngine()
		cfg := cuda.DefaultConfig(cc)
		rt := cuda.New(eng, cfg)
		rt.AddDevice(cfg.PCIe, cfg.HBM, cfg.GPU)
		if nvlink {
			rt.SetNVLink(cfg.NVLink)
		}
		var total time.Duration
		eng.Spawn("p2p", func(p *sim.Proc) {
			c := rt.Bind(p)
			a := c.MallocOn(0, "a", n)
			b := c.MallocOn(1, "b", n)
			start := p.Now()
			c.MemcpyPeer(b, a, n)
			total = time.Duration(p.Now() - start)
		})
		eng.Run()
		return total
	}
	for _, path := range []struct {
		name   string
		nvlink bool
	}{{"host-staged (PCIe)", false}, {"nvlink bridge", true}} {
		base := run(false, path.nvlink)
		cc := run(true, path.nvlink)
		t.AddRow(path.name, ms(base), ms(cc), float64(cc)/float64(base),
			units.RateGBps(n, base), units.RateGBps(n, cc))
	}
	t.Notes = append(t.Notes,
		"CC host-staged peer copies pay the software cipher twice (decrypt D2H, re-encrypt H2D)",
		"a protected NVLink keeps both GPUs inside the TCB: peer bandwidth is CC-neutral")
	return t
}

// ExtCNNBatchSweep fills in the curve between the paper's two batch sizes:
// how the CC training tax decays as the batch grows (and launch/copy
// overheads amortize against compute).
func ExtCNNBatchSweep() Table {
	t := Table{
		ID:      "ext-cnnbatch",
		Title:   "CC training-throughput loss vs batch size (FP32)",
		Columns: []string{"model", "b64", "b128", "b256", "b512", "b1024"},
	}
	batches := []int{64, 128, 256, 512, 1024}
	for _, m := range nn.Models() {
		row := []interface{}{m.Name}
		for _, b := range batches {
			base := nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: b, Precision: nn.FP32})
			cc := nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: b, Precision: nn.FP32, Mode: "tdx-h100"})
			row = append(row, fmt.Sprintf("%.1f%%", 100*(1-cc.Throughput/base.Throughput)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"the paper samples only batch 64 (-24%) and 1024 (-7.3%); the sweep shows the decay between them as compute amortizes the launch and copy taxes")
	return t
}

// ExtLLMPrefill examines time-to-first-token, which the paper's
// throughput-only evaluation leaves out: the compute-bound prompt pass is
// nearly CC-neutral, but a cold start must pull the whole checkpoint
// through the encrypted copy path.
func ExtLLMPrefill() Table {
	t := Table{
		ID:    "ext-llmprefill",
		Title: "Llama-3-8B time-to-first-token (vLLM)",
		Columns: []string{"quant", "prompt", "warm-ttft-base-ms", "warm-ttft-cc-ms",
			"weight-load-base-s", "weight-load-cc-s", "cold-ttft-cc/base"},
	}
	for _, quant := range []nn.Quant{nn.BF16, nn.AWQ} {
		for _, prompt := range []int{128, 512, 2048} {
			base := nn.PrefillSimulate(nn.VLLM, quant, prompt, false)
			cc := nn.PrefillSimulate(nn.VLLM, quant, prompt, true)
			t.AddRow(quant.String(), prompt,
				ms(base.WarmTTFT), ms(cc.WarmTTFT),
				base.WeightLoad.Seconds(), cc.WeightLoad.Seconds(),
				float64(cc.ColdTTFT)/float64(base.ColdTTFT))
		}
	}
	t.Notes = append(t.Notes,
		"warm TTFT barely moves under CC (prefill is on-device compute), but cold starts pull the whole checkpoint through the 3 GB/s encrypted path",
		"AWQ's 3x smaller checkpoint is a cold-start win on top of its decode behaviour — a deployment consideration the paper's steady-state metric hides")
	return t
}

// ExtStartup accounts for the one-time deployment costs the paper's
// steady-state figures exclude: accepting the TD's private memory (lazy vs
// eager), the SPDM attestation handshake with the GPU, and the first-API
// context establishment. These dominate short-lived confidential jobs.
func ExtStartup() Table {
	t := Table{
		ID:      "ext-startup",
		Title:   "One-time confidential-computing startup costs",
		Columns: []string{"component", "cost", "notes"},
	}
	td := platform.MustByName(platform.Default).TDX

	// TD boot: eager acceptance touches every private page with SEPT
	// AUG+ACCEPT; lazy acceptance defers to first touch (Linux default).
	guestMem := int64(64) << 30 // the paper pins a 64 GiB TD
	pagesN := guestMem / 4096
	eager := time.Duration(pagesN) * td.SEPTPerPage
	lazyBoot := time.Duration(pagesN/64) * td.SEPTPerPage // boot working set ~1/64
	t.AddRow("TD memory acceptance (eager, 64 GiB)", eager.Round(time.Millisecond),
		"every 4K page pays SEPT AUG+ACCEPT")
	t.AddRow("TD memory acceptance (lazy boot set)", lazyBoot.Round(time.Millisecond),
		"Linux lazy acceptance; the rest is paid on first touch")

	// SPDM attestation of the GPU when it binds to the TD.
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, platform.MustByName(platform.Default).PCIe)
	var spdm time.Duration
	eng.Spawn("spdm", func(p *sim.Proc) {
		start := p.Now()
		link.EstablishSPDM(p)
		spdm = time.Duration(p.Now() - start)
	})
	eng.Run()
	t.AddRow("GPU SPDM attestation + session keys", spdm,
		"certificate walk, measurement collection, key exchange")

	// First CUDA API call inside the TD vs a legacy VM.
	ctxInit := func(cc bool) time.Duration {
		e := sim.NewEngine()
		rt := cuda.New(e, cuda.DefaultConfig(cc))
		var d time.Duration
		e.Spawn("init", func(p *sim.Proc) {
			c := rt.Bind(p)
			start := p.Now()
			c.Malloc("first", 1<<20)
			d = time.Duration(p.Now() - start)
		})
		e.Run()
		return d
	}
	base := ctxInit(false)
	cc := ctxInit(true)
	t.AddRow("first CUDA call (context init), legacy VM", base, "")
	t.AddRow("first CUDA call (context init), TD", cc,
		fmt.Sprintf("%.1fx: channel-setup ioctls become hypercalls", float64(cc)/float64(base)))
	t.Notes = append(t.Notes,
		"steady-state figures exclude these; for short confidential jobs the SPDM handshake and memory acceptance can rival the compute itself")
	return t
}
