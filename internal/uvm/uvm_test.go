package uvm

import (
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
)

type rig struct {
	eng  *sim.Engine
	pl   *tdx.Platform
	link *pcie.Link
	mgr  *Manager
}

func newRig(cc bool) *rig {
	eng := sim.NewEngine()
	var mode ccmode.Mode = ccmode.Off{}
	if cc {
		mode = ccmode.TDXH100{}
	}
	pl := tdx.NewPlatform(eng, mode, tdxParams())
	link := pcie.NewLink(eng, pcieParams())
	return &rig{eng: eng, pl: pl, link: link, mgr: NewManager(eng, pl, link, defaultParams())}
}

func (r *rig) run(body func(p *sim.Proc)) sim.Time {
	r.eng.Spawn("t", body)
	return r.eng.Run()
}

// gpuAccess charges p for a GPU-side access to the first bytes of rng, the
// way a kernel's access does through GPUAccessAtA.
func gpuAccess(p *sim.Proc, rng *Range, bytes int64, random bool) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		rng.GPUAccessAtA(a, 0, bytes, random, step, state)
	})
}

func TestFirstTouchMigratesSecondIsFree(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(4 << 20)
	var first, second time.Duration
	r.run(func(p *sim.Proc) {
		t0 := p.Now()
		gpuAccess(p, rng, 4<<20, false)
		first = time.Duration(p.Now() - t0)
		t1 := p.Now()
		gpuAccess(p, rng, 4<<20, false)
		second = time.Duration(p.Now() - t1)
	})
	if first <= 0 {
		t.Fatal("first access consumed no time")
	}
	if second != 0 {
		t.Fatalf("resident access cost %v, want 0", second)
	}
	if rng.ResidentPages() != rng.Pages() {
		t.Fatalf("resident %d/%d pages", rng.ResidentPages(), rng.Pages())
	}
}

func TestCCMigrationMuchSlower(t *testing.T) {
	const n = 32 << 20
	base := newRig(false)
	bRange := base.mgr.NewRange(n)
	baseEnd := base.run(func(p *sim.Proc) { gpuAccess(p, bRange, n, false) })

	cc := newRig(true)
	cRange := cc.mgr.NewRange(n)
	ccEnd := cc.run(func(p *sim.Proc) { gpuAccess(p, cRange, n, false) })

	ratio := float64(ccEnd) / float64(baseEnd)
	// Encrypted paging: small batches, hypercalls, software AES. The paper
	// reports order-of-magnitude slowdowns; require at least 5x here.
	if ratio < 5 {
		t.Fatalf("CC migration only %.2fx slower (base %v, cc %v)", ratio, baseEnd, ccEnd)
	}
}

func TestCCUsesSmallerBatches(t *testing.T) {
	const n = 8 << 20
	base := newRig(false)
	bRange := base.mgr.NewRange(n)
	base.run(func(p *sim.Proc) { gpuAccess(p, bRange, n, false) })

	cc := newRig(true)
	cRange := cc.mgr.NewRange(n)
	cc.run(func(p *sim.Proc) { gpuAccess(p, cRange, n, false) })

	if cc.mgr.Stats().FaultBatches <= base.mgr.Stats().FaultBatches {
		t.Fatalf("CC batches (%d) not more numerous than base (%d)",
			cc.mgr.Stats().FaultBatches, base.mgr.Stats().FaultBatches)
	}
}

func TestRandomPatternMoreBatches(t *testing.T) {
	const n = 8 << 20
	a := newRig(false)
	ra := a.mgr.NewRange(n)
	a.run(func(p *sim.Proc) { gpuAccess(p, ra, n, false) })

	b := newRig(false)
	rb := b.mgr.NewRange(n)
	b.run(func(p *sim.Proc) { gpuAccess(p, rb, n, true) })

	if b.mgr.Stats().FaultBatches <= a.mgr.Stats().FaultBatches {
		t.Fatalf("random pattern batches (%d) not more than streaming (%d)",
			b.mgr.Stats().FaultBatches, a.mgr.Stats().FaultBatches)
	}
}

func TestHostAccessWritesBack(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(2 << 20)
	r.run(func(p *sim.Proc) {
		gpuAccess(p, rng, 2<<20, false)
		if rng.ResidentPages() == 0 {
			t.Error("nothing resident after GPU access")
		}
		rng.HostAccess(p, 2<<20)
	})
	if rng.ResidentPages() != 0 {
		t.Fatalf("%d pages still resident after host access", rng.ResidentPages())
	}
	if r.mgr.Stats().BytesToHost != 2<<20 {
		t.Fatalf("writeback bytes = %d", r.mgr.Stats().BytesToHost)
	}
	if r.mgr.ResidentBytes() != 0 {
		t.Fatalf("manager resident bytes = %d", r.mgr.ResidentBytes())
	}
}

func TestEvictionUnderResidentLimit(t *testing.T) {
	r := newRig(false)
	r.mgr.SetResidentLimit(2 << 20)
	a := r.mgr.NewRange(2 << 20)
	b := r.mgr.NewRange(2 << 20)
	r.run(func(p *sim.Proc) {
		gpuAccess(p, a, 2<<20, false)
		gpuAccess(p, b, 2<<20, false) // must evict a
	})
	if a.ResidentPages() != 0 {
		t.Fatalf("LRU victim still resident: %d pages", a.ResidentPages())
	}
	if b.ResidentPages() != b.Pages() {
		t.Fatalf("new range not resident: %d/%d", b.ResidentPages(), b.Pages())
	}
	if r.mgr.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	if r.mgr.ResidentBytes() > 2<<20 {
		t.Fatalf("resident bytes %d exceed limit", r.mgr.ResidentBytes())
	}
}

func TestReleaseDropsResidency(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(1 << 20)
	r.run(func(p *sim.Proc) { gpuAccess(p, rng, 1<<20, false) })
	rng.Release()
	if r.mgr.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d after release", r.mgr.ResidentBytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	rng.Release()
}

func TestAccessReleasedRangePanics(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(1 << 20)
	rng.Release()
	r.eng.Spawn("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic accessing released range")
			}
		}()
		gpuAccess(p, rng, 100, false)
	})
	r.eng.Run()
}

func TestPartialAccessOnlyMigratesTouchedPages(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(4 << 20)
	r.run(func(p *sim.Proc) { gpuAccess(p, rng, 1<<20, false) })
	want := int64(1<<20) / defaultParams().PageBytes
	if rng.ResidentPages() != want {
		t.Fatalf("resident pages = %d, want %d", rng.ResidentPages(), want)
	}
}

func TestBadParamsAndSizesPanic(t *testing.T) {
	r := newRig(false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for zero-size range")
			}
		}()
		r.mgr.NewRange(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad params")
			}
		}()
		NewManager(r.eng, r.pl, r.link, Params{})
	}()
}

// Property: residency accounting is exact — after any access sequence the
// manager's resident byte count equals the sum over ranges.
func TestPropertyResidencyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		r := newRig(len(ops)%2 == 0)
		ranges := []*Range{r.mgr.NewRange(1 << 20), r.mgr.NewRange(2 << 20), r.mgr.NewRange(512 << 10)}
		ok := true
		r.run(func(p *sim.Proc) {
			for _, op := range ops {
				rg := ranges[int(op)%len(ranges)]
				bytes := int64(op)*4096 + 1
				if op%3 == 0 {
					rg.HostAccess(p, bytes)
				} else {
					gpuAccess(p, rg, bytes, op%5 == 0)
				}
			}
			var sum int64
			for _, rg := range ranges {
				sum += rg.ResidentPages() * r.mgr.Params().PageBytes
			}
			ok = sum == r.mgr.ResidentBytes()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchToStreamsInFullBatches(t *testing.T) {
	cc := newRig(true)
	rng := cc.mgr.NewRange(8 << 20)
	ccEnd := cc.run(func(p *sim.Proc) { rng.PrefetchTo(p, 8<<20) })
	if rng.ResidentPages() != rng.Pages() {
		t.Fatalf("prefetch left %d/%d resident", rng.ResidentPages(), rng.Pages())
	}

	// Fault-driven CC migration of the same footprint is much slower.
	cc2 := newRig(true)
	rng2 := cc2.mgr.NewRange(8 << 20)
	faultEnd := cc2.run(func(p *sim.Proc) { gpuAccess(p, rng2, 8<<20, false) })
	if float64(faultEnd) < 3*float64(ccEnd) {
		t.Fatalf("fault-driven (%v) not much slower than prefetch (%v)", faultEnd, ccEnd)
	}

	// Prefetching an already-resident range is free.
	var second time.Duration
	cc.eng.Spawn("again", func(p *sim.Proc) {
		t0 := p.Now()
		rng.PrefetchTo(p, 8<<20)
		second = time.Duration(p.Now() - t0)
	})
	cc.eng.Run()
	if second != 0 {
		t.Fatalf("re-prefetch cost %v, want 0", second)
	}
}

func TestPrefetchReleasedPanics(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(1 << 20)
	rng.Release()
	r.eng.Spawn("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic prefetching released range")
			}
		}()
		rng.PrefetchTo(p, 100)
	})
	r.eng.Run()
}

func TestAccessorsAndString(t *testing.T) {
	r := newRig(false)
	rng := r.mgr.NewRange(3 << 20)
	if rng.Size() != 3<<20 {
		t.Fatalf("Size = %d", rng.Size())
	}
	if s := r.mgr.String(); s == "" {
		t.Fatal("empty manager string")
	}
}
