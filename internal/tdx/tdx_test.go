package tdx

import (
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/sim"
)

func run(cc bool, body func(pl *Platform, p *sim.Proc)) (*Platform, sim.Time) {
	eng := sim.NewEngine()
	var mode ccmode.Mode = ccmode.Off{}
	if cc {
		mode = ccmode.TDXH100{}
	}
	pl := NewPlatform(eng, mode, defaultParams())
	eng.Spawn("t", func(p *sim.Proc) { body(pl, p) })
	end := eng.Run()
	return pl, end
}

func TestHypercallMoreExpensiveThanExit(t *testing.T) {
	p := defaultParams()
	// The paper cites >470% overhead for tdx_hypercall vs a plain exit.
	if ratio := float64(p.Hypercall) / float64(p.VMExit); ratio < 4.7 {
		t.Fatalf("hypercall/exit ratio = %.2f, want >= 4.7", ratio)
	}
}

func TestMMIODirectVsTrapped(t *testing.T) {
	_, endVM := run(false, func(pl *Platform, p *sim.Proc) { pl.MMIO(p) })
	plTD, endTD := run(true, func(pl *Platform, p *sim.Proc) { pl.MMIO(p) })
	if endTD <= endVM {
		t.Fatalf("TD MMIO (%v) not slower than VM MMIO (%v)", endTD, endVM)
	}
	if plTD.Stats().Hypercalls != 1 {
		t.Fatalf("TD MMIO should cost one hypercall, got %d", plTD.Stats().Hypercalls)
	}
}

func TestPageOpsNoOpWithoutCC(t *testing.T) {
	pl, end := run(false, func(pl *Platform, p *sim.Proc) {
		pl.AcceptPrivate(p, 1<<20)
		pl.ConvertShared(p, 1<<20)
		pl.ScrubPrivate(p, 1<<20)
		pl.Encrypt(p, 1<<20)
		pl.Decrypt(p, 1<<20)
		pl.BounceAcquire(p, 1<<20)
		pl.BounceRelease(1 << 20)
	})
	if end != 0 {
		t.Fatalf("non-CC page/crypto ops consumed time: %v", end)
	}
	s := pl.Stats()
	if s.PagesAccepted != 0 || s.PagesConverted != 0 || s.BytesEncrypted != 0 {
		t.Fatalf("non-CC ops changed stats: %+v", s)
	}
}

func TestPageOpsScaleWithPages(t *testing.T) {
	_, end1 := run(true, func(pl *Platform, p *sim.Proc) { pl.ConvertShared(p, 4096) })
	_, end4 := run(true, func(pl *Platform, p *sim.Proc) { pl.ConvertShared(p, 4*4096) })
	if end4 != 4*end1 {
		t.Fatalf("ConvertShared not linear in pages: %v vs 4x%v", end4, end1)
	}
	// Partial pages round up.
	_, endPartial := run(true, func(pl *Platform, p *sim.Proc) { pl.ConvertShared(p, 1) })
	if endPartial != end1 {
		t.Fatalf("partial page not rounded up: %v vs %v", endPartial, end1)
	}
}

func TestEncryptChargesCryptoWorkerSerially(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	const n = 10 << 20
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		eng.Spawn("enc", func(p *sim.Proc) {
			pl.Encrypt(p, n)
			ends = append(ends, p.Now())
		})
	}
	eng.Run()
	one := pl.CryptoTime(n)
	if len(ends) != 2 {
		t.Fatal("missing completions")
	}
	// Single-threaded software crypto: second finishes after ~2x one buffer.
	if got := time.Duration(ends[1]); got < 2*one-time.Microsecond {
		t.Fatalf("encryptions overlapped: second done at %v, want >= %v", got, 2*one)
	}
	if pl.Stats().BytesEncrypted != 2*n {
		t.Fatalf("BytesEncrypted = %d", pl.Stats().BytesEncrypted)
	}
}

func TestBouncePoolBlocksWhenExhausted(t *testing.T) {
	eng := sim.NewEngine()
	params := defaultParams()
	params.BounceBufBytes = 1 << 20
	pl := NewPlatform(eng, ccmode.TDXH100{}, params)
	var secondStart sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		pl.BounceAcquire(p, 1<<20)
		p.Sleep(time.Millisecond)
		pl.BounceRelease(1 << 20)
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // arrive second
		pl.BounceAcquire(p, 1<<19)
		secondStart = p.Now()
		pl.BounceRelease(1 << 19)
	})
	eng.Run()
	if time.Duration(secondStart) < time.Millisecond {
		t.Fatalf("second acquirer got bounce space at %v while pool full", secondStart)
	}
	if pl.BounceInUse() != 0 {
		t.Fatalf("pool leaked: %d bytes in use", pl.BounceInUse())
	}
}

func TestBounceOversizedRequestPanics(t *testing.T) {
	eng := sim.NewEngine()
	params := defaultParams()
	params.BounceBufBytes = 4096
	pl := NewPlatform(eng, ccmode.TDXH100{}, params)
	eng.Spawn("a", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for oversized bounce request")
			}
		}()
		pl.BounceAcquire(p, 8192)
	})
	eng.Run()
}

func TestBounceUnderflowPanics(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bounce underflow")
		}
	}()
	pl.BounceRelease(1)
}

// Property: total TD-side cost of the shared-conversion path is monotone in
// size and always dearer than the legacy-VM path.
func TestPropertyCCAlwaysCostsMore(t *testing.T) {
	f := func(kb uint16) bool {
		n := int64(kb)*1024 + 1
		var ccEnd, vmEnd sim.Time
		_, ccEnd = run(true, func(pl *Platform, p *sim.Proc) {
			pl.ConvertShared(p, n)
			pl.Encrypt(p, n)
			pl.MMIO(p)
		})
		_, vmEnd = run(false, func(pl *Platform, p *sim.Proc) {
			pl.ConvertShared(p, n)
			pl.Encrypt(p, n)
			pl.MMIO(p)
		})
		return ccEnd > vmEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCryptoTimeZeroWithoutCC(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.Off{}, defaultParams())
	if pl.CryptoTime(1<<20) != 0 {
		t.Fatal("CryptoTime should be 0 without CC")
	}
}

func TestProfilePresets(t *testing.T) {
	td := defaultParams()
	snp := snpParams()
	// SNP: cheaper exits, dearer page-state changes.
	if snp.Hypercall >= td.Hypercall {
		t.Fatal("SNP VMGEXIT not cheaper than TDX SEAM transit")
	}
	if snp.SEPTPerPage <= td.SEPTPerPage || snp.ConvertPerPage <= td.ConvertPerPage {
		t.Fatal("SNP RMP page operations not dearer than TDX SEPT")
	}
}

func TestAccessorsAndPaths(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	if !pl.CC() || !pl.SoftwareCryptoPath() {
		t.Fatal("stock TD should report CC + software crypto path")
	}
	if pl.Params().Hypercall != defaultParams().Hypercall {
		t.Fatal("Params accessor broken")
	}
	if pl.Engine() != eng {
		t.Fatal("Engine accessor broken")
	}
	if pl.MMIOCost() != defaultParams().Hypercall {
		t.Fatal("TD MMIOCost should be a hypercall")
	}
	vm := NewPlatform(eng, ccmode.Off{}, defaultParams())
	if vm.SoftwareCryptoPath() {
		t.Fatal("legacy VM reports software crypto path")
	}
	if vm.MMIOCost() != defaultParams().MMIODirect {
		t.Fatal("VM MMIOCost should be direct")
	}
}

func TestHypercallAndHostMemcpy(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	hostMemcpy := func(p *sim.Proc, n int64) {
		p.Await(func(a *sim.Actor, step func(any), state any) { pl.HostMemcpyA(a, n, step, state) })
	}
	eng.Spawn("t", func(p *sim.Proc) {
		p.Await(pl.HypercallA)
		hostMemcpy(p, 115*1000*1000) // ~10ms at 11.5 GB/s
		hostMemcpy(p, 0)             // no-op
	})
	end := eng.Run()
	want := defaultParams().Hypercall + 10*time.Millisecond
	diff := time.Duration(end) - want
	if diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("hypercall+memcpy = %v, want ~%v", time.Duration(end), want)
	}
	if pl.Stats().Hypercalls != 1 || pl.Stats().BytesStaged != 115_000_000 {
		t.Fatalf("stats wrong: %+v", pl.Stats())
	}
}

func TestTEEIOEncryptDecryptAreIDE(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TEEIODirect{}, defaultParams())
	eng.Spawn("t", func(p *sim.Proc) {
		pl.Encrypt(p, 1<<30)
		pl.Decrypt(p, 1<<30)
	})
	end := eng.Run()
	want := 2 * defaultParams().IDEPerTLP
	if time.Duration(end) != want {
		t.Fatalf("TEE-IO crypto = %v, want %v (hardware IDE)", time.Duration(end), want)
	}
	if pl.CryptoTime(1<<20) != defaultParams().IDEPerTLP {
		t.Fatal("TEE-IO CryptoTime wrong")
	}
	// Hardware IDE encrypts on the link, outside the software cipher's
	// byte accounting.
	if s := pl.Stats(); s.BytesEncrypted != 0 || s.BytesDecrypted != 0 {
		t.Fatalf("IDE counted software-cipher bytes: encrypted %d, decrypted %d", s.BytesEncrypted, s.BytesDecrypted)
	}
}

func TestDecryptChargesWorker(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	eng.Spawn("t", func(p *sim.Proc) { pl.Decrypt(p, 33_600_000) }) // ~10ms at 3.36GB/s
	end := eng.Run()
	if time.Duration(end) < 9*time.Millisecond {
		t.Fatalf("decrypt too fast: %v", time.Duration(end))
	}
	if pl.Stats().BytesDecrypted != 33_600_000 {
		t.Fatalf("BytesDecrypted = %d", pl.Stats().BytesDecrypted)
	}
}

func TestPartialPageRoundUpOps(t *testing.T) {
	eng := sim.NewEngine()
	pl := NewPlatform(eng, ccmode.TDXH100{}, defaultParams())
	eng.Spawn("t", func(p *sim.Proc) {
		pl.AcceptPrivate(p, 1)
		pl.ScrubPrivate(p, 1)
	})
	end := eng.Run()
	want := defaultParams().SEPTPerPage + defaultParams().ScrubPerPage
	if time.Duration(end) != want {
		t.Fatalf("partial pages = %v, want %v", time.Duration(end), want)
	}
}
