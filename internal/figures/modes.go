package figures

import (
	"fmt"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
	"hccsim/internal/sim"
	"hccsim/internal/units"
	"hccsim/internal/workloads"
)

// ExtModes compares the protection-mode family side by side: legacy VM
// (off), stock TDX + H100 CC (tdx-h100), the Blackwell-style TEE-IO
// serialized encrypted bridge (tee-io-bridge), and TDX CC with PipeLLM-style
// pipelined copy encryption (tdx-h100+pipelined). The table shows the two
// signatures the mode layer is built to separate:
//
//   - tdx-h100 pays on both sides of the model — software crypto on the
//     transfer path (Tmem) AND hypercall/MMIO taxes on the kernel side
//     (launch, alloc, beta);
//   - tee-io-bridge moves essentially all overhead onto the transfer path:
//     kernel-side terms and alpha/beta match off (the "(1-beta) ~ 0" shape
//     of The Serialized Bridge), while H2D and D2H serialize on one
//     derated encrypted bridge;
//   - the pipelined decorator keeps tdx-h100's policy but overlaps AES-GCM
//     with DMA, measurably narrowing its transfer gap.
func ExtModes() Table {
	modes := []string{"off", "tdx-h100", "tee-io-bridge", "tdx-h100+pipelined"}
	t := Table{
		ID:      "ext-modes",
		Title:   "protection-mode family: off vs TDX+H100 vs TEE-IO serialized bridge",
		Columns: append([]string{"metric"}, modes...),
	}

	// Raw transfer path: 1 GiB pinned H2D bandwidth per mode.
	bws := make([]float64, len(modes))
	for i, m := range modes {
		bws[i] = modeBW(platformConfig(platform.Default, m))
	}
	row := []interface{}{"pinned H2D 1 GiB (GB/s)"}
	for _, b := range bws {
		row = append(row, b)
	}
	t.AddRow(row...)

	// Bidirectional transfers: the full-duplex link overlaps H2D with D2H,
	// the serialized bridge cannot — its defining cost.
	row = []interface{}{"concurrent 2x512 MiB H2D+D2H (ms)"}
	for _, m := range modes {
		row = append(row, ms(modeBidir(platformConfig(platform.Default, m))))
	}
	t.AddRow(row...)

	// Workload suite: end-to-end, transfer term and fitted alpha/beta per
	// mode, plus one UVM app where the bridge also restores fault batching.
	for _, name := range []string{"2dconv", "gemm", "atax"} {
		spec := mustWorkload(name)
		ends := make([]time.Duration, len(modes))
		models := make([]core.Model, len(modes))
		for i, m := range modes {
			res := workloads.Execute(spec, workloads.CopyExecute, platformConfig(platform.Default, m))
			ends[i] = time.Duration(res.End)
			models[i] = core.Decompose(res.Runtime.Tracer())
		}
		rowEnd := []interface{}{name + " end-to-end (ms)"}
		rowMem := []interface{}{name + " transfer term Tmem (ms)"}
		rowLaunch := []interface{}{name + " launch term (ms)"}
		rowAB := []interface{}{name + " alpha / beta"}
		for i := range modes {
			rowEnd = append(rowEnd, ms(ends[i]))
			rowMem = append(rowMem, ms(models[i].Tmem))
			rowLaunch = append(rowLaunch, ms(models[i].LaunchTerm))
			rowAB = append(rowAB, fmt.Sprintf("%.2f / %.2f", models[i].Alpha, models[i].Beta))
		}
		t.AddRow(rowEnd...)
		t.AddRow(rowMem...)
		t.AddRow(rowLaunch...)
		t.AddRow(rowAB...)
	}
	spec := mustWorkload("2dconv")
	row = []interface{}{"2dconv UVM end-to-end (ms)"}
	for _, m := range modes {
		res := workloads.Execute(spec, workloads.UVM, platformConfig(platform.Default, m))
		row = append(row, ms(time.Duration(res.End)))
	}
	t.AddRow(row...)

	gap := func(bw float64) float64 { return 100 * (bws[0] - bw) / bws[0] }
	t.Notes = append(t.Notes,
		"tee-io-bridge: kernel-side terms match off — the bridge concentrates all CC cost on the transfer path",
		fmt.Sprintf("1 GiB H2D bandwidth gap vs off: tdx-h100 %.1f%%, tee-io-bridge %.1f%%, tdx-h100+pipelined %.1f%%",
			gap(bws[1]), gap(bws[2]), gap(bws[3])),
	)
	return t
}

// modeBW measures 1 GiB pinned H2D bandwidth (GB/s) under cfg.
//
//hcclint:unit GBps
func modeBW(cfg cuda.Config) float64 {
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

// modeBidir issues a 512 MiB H2D and a 512 MiB D2H concurrently on two
// streams and returns the time until both land.
func modeBidir(cfg cuda.Config) time.Duration {
	eng := sim.NewEngine()
	rt := cuda.New(eng, cfg)
	var dur time.Duration
	eng.Spawn("bidir", func(p *sim.Proc) {
		c := rt.Bind(p)
		const n = 512 << 20
		hUp := c.MallocHost("h-up", n)
		dUp := c.Malloc("d-up", n)
		hDown := c.MallocHost("h-down", n)
		dDown := c.Malloc("d-down", n)
		up, down := c.StreamCreate(), c.StreamCreate()
		start := p.Now()
		c.MemcpyAsync(dUp, hUp, n, up)
		c.MemcpyAsync(hDown, dDown, n, down)
		c.Sync()
		dur = time.Duration(p.Now() - start)
	})
	eng.Run()
	return dur
}
