package hccsim

// The benchmark harness: one testing.B benchmark per reproduced table or
// figure of the paper's evaluation, plus microbenchmarks of the simulator
// itself. Each figure benchmark regenerates its table (the simulated
// experiment runs to completion on every iteration) and logs the table
// once, so `go test -bench=. -benchmem` both exercises and displays the
// full reproduction. Key series values are also exported through
// b.ReportMetric for machine consumption.

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/figures"
	"hccsim/internal/nn"
	"hccsim/internal/swcrypto"
	"hccsim/internal/workloads"
)

// benchFigure is the common driver: regenerate the figure b.N times and log
// it once.
func benchFigure(b *testing.B, id string) figures.Table {
	b.Helper()
	var tab figures.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = figures.Generate(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tab.String())
	return tab
}

func BenchmarkFig04aBandwidth(b *testing.B) {
	tab := benchFigure(b, "fig4a")
	// Export the 1 GiB plateaus.
	last := len(tab.Rows) - 1
	if v, err := strconv.ParseFloat(tab.Cell(last, 2), 64); err == nil {
		b.ReportMetric(v, "pinned-GB/s")
	}
	if v, err := strconv.ParseFloat(tab.Cell(last, 4), 64); err == nil {
		b.ReportMetric(v, "cc-GB/s")
	}
}

func BenchmarkFig04bCrypto(b *testing.B)      { benchFigure(b, "fig4b") }
func BenchmarkFig05CopyTime(b *testing.B)     { benchFigure(b, "fig5") }
func BenchmarkFig06AllocFree(b *testing.B)    { benchFigure(b, "fig6") }
func BenchmarkFig07LaunchQueue(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig08CallStack(b *testing.B)    { benchFigure(b, "fig8") }
func BenchmarkFig09KET(b *testing.B)          { benchFigure(b, "fig9") }
func BenchmarkFig10Timeline(b *testing.B)     { benchFigure(b, "fig10") }
func BenchmarkFig11CDF(b *testing.B)          { benchFigure(b, "fig11") }
func BenchmarkFig12aLaunchCount(b *testing.B) { benchFigure(b, "fig12a") }
func BenchmarkFig12bFusion(b *testing.B)      { benchFigure(b, "fig12b") }
func BenchmarkFig12cOverlap(b *testing.B)     { benchFigure(b, "fig12c") }
func BenchmarkFig13CNN(b *testing.B)          { benchFigure(b, "fig13") }
func BenchmarkFig14LLM(b *testing.B)          { benchFigure(b, "fig14") }

func BenchmarkExtTEEIO(b *testing.B)         { benchFigure(b, "ext-teeio") }
func BenchmarkExtCryptoWorkers(b *testing.B) { benchFigure(b, "ext-cryptoworkers") }
func BenchmarkExtGraphBatch(b *testing.B)    { benchFigure(b, "ext-graphbatch") }
func BenchmarkExtPrefetch(b *testing.B)      { benchFigure(b, "ext-prefetch") }
func BenchmarkExtPrimitives(b *testing.B)    { benchFigure(b, "ext-primitives") }
func BenchmarkExtMultiGPU(b *testing.B)      { benchFigure(b, "ext-multigpu") }
func BenchmarkExtCNNBatch(b *testing.B)      { benchFigure(b, "ext-cnnbatch") }
func BenchmarkExtLLMPrefill(b *testing.B)    { benchFigure(b, "ext-llmprefill") }
func BenchmarkExtStartup(b *testing.B)       { benchFigure(b, "ext-startup") }

func BenchmarkObservations(b *testing.B) {
	var agg figures.SuiteAggregates
	for i := 0; i < b.N; i++ {
		agg = figures.ComputeSuiteAggregates()
	}
	tab := figures.Observations()
	b.Log("\n" + tab.String())
	b.ReportMetric(agg.CopyAvg, "copy-x")
	b.ReportMetric(agg.KLOAvg, "klo-x")
	b.ReportMetric(agg.KQTAvg, "kqt-x")
	b.ReportMetric(agg.UVMCCAvg, "uvmcc-x")
}

// BenchmarkFullFigureSet regenerates every figure serially and through the
// batch worker pool — the wall-clock win of the sweep-orchestration
// subsystem on the heaviest built-in campaign (cmd/hccreport's workload).
func BenchmarkFullFigureSet(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pooled", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := figures.GenerateAll(bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) != len(figures.IDs()) {
					b.Fatalf("generated %d tables, want %d", len(tables), len(figures.IDs()))
				}
			}
		})
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationBounceBuffer isolates the bounce-buffer + encryption
// stage: the same 256 MiB H2D transfer with CC on vs off.
func BenchmarkAblationBounceBuffer(b *testing.B) {
	for _, cc := range []bool{false, true} {
		name := "base"
		if cc {
			name = "cc"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cuda.DefaultConfig(cc))
				elapsed = sys.Run(func(c *Context) {
					h := c.MallocHost("h", 256<<20)
					d := c.Malloc("d", 256<<20)
					c.Memcpy(d, h, 256<<20)
					c.Free(d)
				})
			}
			b.ReportMetric(elapsed.Seconds()*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationUVMBatch sweeps the encrypted-paging batch size — the
// knob that separates CC paging from non-CC prefetching.
func BenchmarkAblationUVMBatch(b *testing.B) {
	for _, pages := range []int{1, 2, 8, 32} {
		b.Run("pages-"+strconv.Itoa(pages), func(b *testing.B) {
			cfg := cuda.DefaultConfig(true)
			cfg.UVM.BatchPagesCC = pages
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cfg)
				elapsed = sys.Run(func(c *Context) {
					m := c.MallocManaged("m", 64<<20)
					c.Launch(KernelSpec{Name: "k", Fixed: time.Millisecond,
						Managed: []ManagedAccess{{Range: m.Managed(), Bytes: 64 << 20}}}, nil)
					c.Sync()
					c.Free(m)
				})
			}
			b.ReportMetric(elapsed.Seconds()*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationCryptoChoice swaps the copy-path cipher, quantifying how
// much a faster (weaker) algorithm would recover (Observation 2).
func BenchmarkAblationCryptoChoice(b *testing.B) {
	for _, alg := range []swcrypto.Algorithm{swcrypto.AES128GCM, swcrypto.AES256GCM, swcrypto.GHASHAlg} {
		b.Run(string(alg), func(b *testing.B) {
			cfg := cuda.DefaultConfig(true)
			cfg.TDX.CryptoAlg = alg
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cfg)
				elapsed = sys.Run(func(c *Context) {
					h := c.HostBuffer("h", 512<<20)
					d := c.Malloc("d", 512<<20)
					c.Memcpy(d, h, 512<<20)
					c.Free(d)
				})
			}
			b.ReportMetric(elapsed.Seconds()*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationFenceInterval sweeps the driver fence-read interval, the
// hidden hypercall amortization knob behind the steady-state KLO tax.
func BenchmarkAblationFenceInterval(b *testing.B) {
	for _, iv := range []int{8, 24, 48, 96} {
		b.Run("every-"+strconv.Itoa(iv), func(b *testing.B) {
			cfg := cuda.DefaultConfig(true)
			cfg.Host.FenceInterval = iv
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cfg)
				elapsed = sys.Run(func(c *Context) {
					for j := 0; j < 500; j++ {
						c.Launch(KernelSpec{Name: "k", Fixed: 2 * time.Microsecond}, nil)
					}
					c.Sync()
				})
			}
			b.ReportMetric(elapsed.Seconds()*1e3, "sim-ms")
		})
	}
}

// --- simulator microbenchmarks ---

func BenchmarkWorkloadSC(b *testing.B) {
	spec, err := workloads.ByName("sc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		workloads.Pair(spec, workloads.CopyExecute)
	}
}

func BenchmarkCNNIteration(b *testing.B) {
	m, err := nn.ModelByName("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: 64, Precision: nn.FP32, Mode: "tdx-h100"})
	}
}

func BenchmarkLLMStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nn.LLMSimulate(nn.LLMConfig{Backend: nn.VLLM, Quant: nn.BF16, Batch: 32, Mode: "tdx-h100"})
	}
}
