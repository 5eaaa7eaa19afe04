package figures

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
)

func TestExtTEEIORecoversBandwidth(t *testing.T) {
	tab := ExtTEEIO()
	// Row 0: pinned H2D bandwidth across platforms.
	legacy := cellF(t, tab, 0, 1)
	tdxCC := cellF(t, tab, 0, 2)
	snpCC := cellF(t, tab, 0, 3)
	connect := cellF(t, tab, 0, 4)
	if tdxCC > 4 || snpCC > 4 {
		t.Fatalf("stock CC bandwidth not crypto-bound: tdx %v snp %v", tdxCC, snpCC)
	}
	if connect < 0.9*legacy {
		t.Fatalf("TEE-IO bandwidth %v does not recover line rate (legacy %v)", connect, legacy)
	}
	// 2dconv UVM: TEE-IO must land near the legacy-VM time.
	uvmRow := len(tab.Rows) - 1
	legacyT := cellF(t, tab, uvmRow, 1)
	ccT := cellF(t, tab, uvmRow, 2)
	connectT := cellF(t, tab, uvmRow, 4)
	if ccT < 10*legacyT {
		t.Fatalf("stock CC UVM (%vms) not far above legacy (%vms)", ccT, legacyT)
	}
	if connectT > 2*legacyT {
		t.Fatalf("TEE-IO UVM (%vms) did not recover near legacy (%vms)", connectT, legacyT)
	}
}

func TestExtCryptoWorkersScale(t *testing.T) {
	tab := ExtCryptoWorkers()
	prev := 0.0
	for i := range tab.Rows {
		bw := cellF(t, tab, i, 1)
		if bw <= prev {
			t.Fatalf("bandwidth not increasing with workers at row %d: %v <= %v", i, bw, prev)
		}
		prev = bw
	}
	// Blocking-copy column must be flat: extra workers don't help a
	// single-threaded cudaMemcpy.
	first := tab.Cell(0, 3)
	for i := range tab.Rows {
		if tab.Cell(i, 3) != first {
			t.Fatalf("blocking-copy column not flat: %v vs %v", tab.Cell(i, 3), first)
		}
	}
}

func TestExtGraphBatchOptimum(t *testing.T) {
	tab := ExtGraphBatch()
	bestOf := func(col int) int {
		best, bestRow := 1e18, -1
		for i := range tab.Rows {
			if v := cellF(t, tab, i, col); v < best {
				best, bestRow = v, i
			}
		}
		b, _ := strconv.Atoi(tab.Cell(bestRow, 0))
		return b
	}
	base := bestOf(1)
	cc := bestOf(2)
	if base <= 1 {
		t.Fatalf("graph batching shows no benefit (optimum B=%d)", base)
	}
	if cc < base {
		t.Fatalf("CC optimum (B=%d) finer than base (B=%d); CC should favour coarser batching", cc, base)
	}
}

func TestExtPrefetchRecoversKET(t *testing.T) {
	tab := ExtPrefetch()
	get := func(mode, strategy string) (ket, total float64) {
		for i, r := range tab.Rows {
			if r[0] == mode && r[1] == strategy {
				return cellF(t, tab, i, 2), cellF(t, tab, i, 3)
			}
		}
		t.Fatalf("row %s/%s missing", mode, strategy)
		return 0, 0
	}
	faultKET, faultTotal := get("cc", "fault-driven")
	pfKET, pfTotal := get("cc", "prefetch")
	if pfKET > faultKET/10 {
		t.Fatalf("prefetch KET %vms not far below fault-driven %vms", pfKET, faultKET)
	}
	if pfTotal >= faultTotal {
		t.Fatalf("prefetch end-to-end %vms not below fault-driven %vms", pfTotal, faultTotal)
	}
}

func TestExtPrimitivesOrdering(t *testing.T) {
	tab := ExtPrimitives()
	if len(tab.Rows) < 5 {
		t.Fatalf("primitives table has %d rows", len(tab.Rows))
	}
	// Exit costs: legacy < snp < tdx.
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	legacy := parse(tab.Cell(0, 1))
	tdxCost := parse(tab.Cell(0, 2))
	snpCost := parse(tab.Cell(0, 3))
	if !(legacy < snpCost && snpCost < tdxCost) {
		t.Fatalf("exit cost ordering wrong: %v %v %v", legacy, snpCost, tdxCost)
	}
}

func TestExtensionRegistryEntries(t *testing.T) {
	for _, id := range []string{"ext-teeio", "ext-cryptoworkers", "ext-graphbatch", "ext-prefetch", "ext-primitives", "ext-multigpu", "ext-cnnbatch", "ext-llmprefill", "ext-startup"} {
		if !strings.Contains(strings.Join(IDs(), " "), id) {
			t.Errorf("%s not registered", id)
		}
	}
}

// Substrate-level checks for the new platform features.

func TestTEEIOPlatformSemantics(t *testing.T) {
	teeioParams := platform.MustByName(platform.Default).TDX
	eng := sim.NewEngine()
	pl := tdx.NewPlatform(eng, ccmode.TEEIODirect{}, teeioParams)
	if pl.SoftwareCryptoPath() {
		t.Fatal("TEE-IO platform should not use the software crypto path")
	}
	if pl.MMIOCost() != teeioParams.MMIODirect {
		t.Fatalf("TEE-IO MMIO cost %v, want direct %v", pl.MMIOCost(), teeioParams.MMIODirect)
	}
	// Bounce pool is bypassed entirely.
	eng.Spawn("x", func(p *sim.Proc) {
		pl.BounceAcquire(p, 1<<30)
		if pl.BounceInUse() != 0 {
			t.Error("TEE-IO reserved bounce space")
		}
	})
	eng.Run()
}

func TestCryptoWorkersParallelize(t *testing.T) {
	elapsed := func(workers int) sim.Time {
		eng := sim.NewEngine()
		params := platform.MustByName(platform.Default).TDX
		params.CryptoWorkers = workers
		pl := tdx.NewPlatform(eng, ccmode.TDXH100{}, params)
		for i := 0; i < 4; i++ {
			eng.Spawn("enc", func(p *sim.Proc) { pl.Encrypt(p, 64<<20) })
		}
		return eng.Run()
	}
	if e4, e1 := elapsed(4), elapsed(1); float64(e4) > 0.3*float64(e1) {
		t.Fatalf("4 workers (%v) not ~4x faster than 1 (%v)", e4, e1)
	}
}

func TestPrefetchThroughCUDAAPI(t *testing.T) {
	eng := sim.NewEngine()
	rt := cuda.New(eng, cuda.DefaultConfig(true))
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		m := c.MallocManaged("m", 16<<20)
		c.Prefetch(m, 16<<20)
		if got := m.Managed().ResidentPages(); got != m.Managed().Pages() {
			t.Errorf("prefetch left %d/%d pages resident", got, m.Managed().Pages())
		}
		d := c.Malloc("d", 100)
		defer func() {
			if recover() == nil {
				t.Error("expected panic prefetching a device buffer")
			}
		}()
		c.Prefetch(d, 100)
	})
	eng.Run()
}

func TestSNPUVMCheaperHypercalls(t *testing.T) {
	run := func(params tdx.Params) sim.Time {
		eng := sim.NewEngine()
		cfg := cuda.DefaultConfig(true)
		cfg.TDX = params
		rt := cuda.New(eng, cfg)
		eng.Spawn("host", func(p *sim.Proc) {
			c := rt.Bind(p)
			m := c.MallocManaged("m", 32<<20)
			p.Await(func(a *sim.Actor, step func(any), state any) {
				m.Managed().GPUAccessAtA(a, 0, 32<<20, false, step, state)
			})
			_ = c
		})
		return eng.Run()
	}
	// SNP's cheaper exits make the hypercall-heavy encrypted-paging path a
	// bit faster than TDX, all else equal.
	tdxT := run(platform.MustByName(platform.Default).TDX)
	snpT := run(platform.MustByName("h100-snp").TDX)
	if snpT >= tdxT {
		t.Fatalf("SNP paging (%v) not cheaper than TDX (%v)", snpT, tdxT)
	}
}

// Check the default UVM params still drive the suite-level figure after the
// extension work (regression guard on the calibration).
func TestExtMultiGPUStory(t *testing.T) {
	tab := ExtMultiGPU()
	stagedRatio := cellF(t, tab, 0, 3)
	nvRatio := cellF(t, tab, 1, 3)
	if stagedRatio < 5 {
		t.Fatalf("host-staged CC ratio %.1f too small (double crypto should dominate)", stagedRatio)
	}
	if nvRatio > 1.05 {
		t.Fatalf("NVLink CC ratio %.2f; should be neutral", nvRatio)
	}
	if nvBW := cellF(t, tab, 1, 4); nvBW < 300 {
		t.Fatalf("NVLink bandwidth %.0f GB/s too low", nvBW)
	}
}

func TestUVMDefaultsUnchanged(t *testing.T) {
	p := platform.MustByName(platform.Default).UVM
	if p.BatchPagesCC != 1 || p.CCFaultHypercalls != 4 {
		t.Fatalf("UVM CC calibration drifted: %+v", p)
	}
}

func TestExtLLMPrefillShape(t *testing.T) {
	tab := ExtLLMPrefill()
	for i := range tab.Rows {
		warmBase := cellF(t, tab, i, 2)
		warmCC := cellF(t, tab, i, 3)
		if warmCC > 1.3*warmBase {
			t.Errorf("row %d: warm TTFT blows up under CC (%v vs %v)", i, warmCC, warmBase)
		}
		loadBase := cellF(t, tab, i, 4)
		loadCC := cellF(t, tab, i, 5)
		if loadCC < 8*loadBase {
			t.Errorf("row %d: weight load not crypto-bound (%v vs %v)", i, loadCC, loadBase)
		}
		if cold := cellF(t, tab, i, 6); cold < 3 {
			t.Errorf("row %d: cold TTFT ratio %.1f too small", i, cold)
		}
	}
}

func TestExtStartupShape(t *testing.T) {
	tab := ExtStartup()
	if len(tab.Rows) != 5 {
		t.Fatalf("startup table has %d rows", len(tab.Rows))
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	eager := parse(tab.Cell(0, 1))
	lazy := parse(tab.Cell(1, 1))
	if eager <= 10*lazy {
		t.Fatalf("eager acceptance (%v) should dwarf lazy boot (%v)", eager, lazy)
	}
	ctxVM := parse(tab.Cell(3, 1))
	ctxTD := parse(tab.Cell(4, 1))
	if ctxTD <= ctxVM {
		t.Fatalf("TD context init (%v) not above VM (%v)", ctxTD, ctxVM)
	}
}
