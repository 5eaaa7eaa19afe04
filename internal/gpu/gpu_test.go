package gpu

import (
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/hbm"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
	"hccsim/internal/uvm"
)

type rig struct {
	eng    *sim.Engine
	pl     *tdx.Platform
	link   *pcie.Link
	dev    *Device
	tracer *trace.Tracer
}

func newRig(cc bool) *rig {
	eng := sim.NewEngine()
	var mode ccmode.Mode = ccmode.Off{}
	if cc {
		mode = ccmode.TDXH100{}
	}
	pl := tdx.NewPlatform(eng, mode, tdxParams())
	link := pcie.NewLink(eng, pcieParams())
	mem := hbm.NewAllocator(hbmParams())
	mgr := uvm.NewManager(eng, pl, link, uvmParams())
	tr := trace.New()
	dev := New(eng, pl, link, mem, mgr, tr, defaultParams())
	return &rig{eng: eng, pl: pl, link: link, dev: dev, tracer: tr}
}

func (r *rig) run(body func(p *sim.Proc)) sim.Time {
	r.eng.Spawn("host", body)
	return r.eng.Run()
}

func TestKernelTimeFixed(t *testing.T) {
	r := newRig(false)
	spec := KernelSpec{Name: "sleep", Fixed: 100 * time.Millisecond}
	if got := r.dev.KernelTime(spec); got != 100*time.Millisecond {
		t.Fatalf("fixed kernel time = %v", got)
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	r := newRig(false)
	// Compute-bound: 6e12 FLOPs at 60 TFLOPs ~= 100 ms.
	cb := KernelSpec{Name: "cb", Blocks: 4096, ThreadsPerBlock: 256, FLOPs: 6e12, MemBytes: 1 << 20}
	got := r.dev.KernelTime(cb)
	if got < 95*time.Millisecond || got > 115*time.Millisecond {
		t.Fatalf("compute-bound kernel time = %v, want ~100ms", got)
	}
	// Memory-bound: 39 GB at 3900 GB/s ~= 10 ms.
	mb := KernelSpec{Name: "mb", Blocks: 4096, ThreadsPerBlock: 256, FLOPs: 1e9, MemBytes: 39 << 30}
	got = r.dev.KernelTime(mb)
	if got < 9*time.Millisecond || got > 12*time.Millisecond {
		t.Fatalf("memory-bound kernel time = %v, want ~10ms", got)
	}
}

func TestKernelTimeOccupancyPenalty(t *testing.T) {
	r := newRig(false)
	big := KernelSpec{Name: "k", Blocks: 2048, ThreadsPerBlock: 1024, FLOPs: 1e12}
	small := big
	small.Blocks = 4
	if r.dev.KernelTime(small) <= r.dev.KernelTime(big) {
		t.Fatal("small grid should run slower than a saturating grid")
	}
}

func TestKernelExecutionUnaffectedByCC(t *testing.T) {
	// Observation 5: non-UVM KET identical under CC.
	spec := KernelSpec{Name: "k", Blocks: 4096, ThreadsPerBlock: 256, FLOPs: 1e12, MemBytes: 1 << 30}
	a := newRig(false)
	b := newRig(true)
	if a.dev.KernelTime(spec) != b.dev.KernelTime(spec) {
		t.Fatal("CC changed non-UVM kernel execution time")
	}
}

func TestChannelRunsKernelAndTraces(t *testing.T) {
	r := newRig(false)
	ch := r.dev.NewChannel()
	spec := KernelSpec{Name: "k1", Fixed: time.Millisecond}
	r.run(func(p *sim.Proc) {
		done := ch.SubmitKernel(spec, 42, false)
		done.Wait(p)
	})
	kernels := r.tracer.OfKind(trace.KindKernel)
	if len(kernels) != 1 {
		t.Fatalf("%d kernel events", len(kernels))
	}
	k := kernels[0]
	if k.Seq != 42 || k.Name != "k1" || k.Duration() != time.Millisecond {
		t.Fatalf("kernel event %+v", k)
	}
	// Dispatch cost delays kernel start.
	if k.Start <= 0 {
		t.Fatal("kernel started at t=0 despite dispatch cost")
	}
	if r.dev.KernelsRun() != 1 {
		t.Fatal("kernel counter")
	}
}

func TestCCDispatchSlowerThanBase(t *testing.T) {
	// The CC command processor must authenticate packets: kernel start is
	// later even though execution time is identical.
	startOf := func(cc bool) sim.Time {
		r := newRig(cc)
		ch := r.dev.NewChannel()
		r.run(func(p *sim.Proc) {
			ch.SubmitKernel(KernelSpec{Name: "k", Fixed: time.Microsecond}, 1, false).Wait(p)
		})
		return r.tracer.OfKind(trace.KindKernel)[0].Start
	}
	if startOf(true) <= startOf(false) {
		t.Fatal("CC kernel dispatch not slower")
	}
}

func TestStreamFIFOAndCrossStreamOverlapOfCopies(t *testing.T) {
	r := newRig(false)
	ch := r.dev.NewChannel()
	var ends []sim.Time
	r.run(func(p *sim.Proc) {
		d1 := ch.SubmitKernel(KernelSpec{Name: "a", Fixed: 10 * time.Millisecond}, 1, false)
		d2 := ch.SubmitKernel(KernelSpec{Name: "b", Fixed: 10 * time.Millisecond}, 2, false)
		d1.Wait(p)
		ends = append(ends, p.Now())
		d2.Wait(p)
		ends = append(ends, p.Now())
	})
	if ends[1] < ends[0]+sim.Time(10*time.Millisecond) {
		t.Fatalf("same-stream kernels overlapped: %v then %v", ends[0], ends[1])
	}

	// Copy on one channel overlaps kernel on another.
	r2 := newRig(false)
	chA := r2.dev.NewChannel()
	chB := r2.dev.NewChannel()
	end := r2.run(func(p *sim.Proc) {
		k := chA.SubmitKernel(KernelSpec{Name: "k", Fixed: 50 * time.Millisecond}, 1, false)
		c := chB.SubmitCopy(trace.KindMemcpyH2D, pcie.H2D, 512<<20, true)
		k.Wait(p)
		c.Wait(p)
	})
	// 512 MB pinned ~ 10 ms; overlapped with 50 ms kernel -> ~50 ms total.
	if time.Duration(end) > 55*time.Millisecond {
		t.Fatalf("copy did not overlap kernel: total %v", time.Duration(end))
	}
}

func TestTransferPathsOrdering(t *testing.T) {
	const n = 256 << 20
	timeFor := func(cc, pinned bool) time.Duration {
		r := newRig(cc)
		end := r.run(func(p *sim.Proc) { r.dev.TransferHD(p, pcie.H2D, n, pinned) })
		return time.Duration(end)
	}
	pinBase := timeFor(false, true)
	pageBase := timeFor(false, false)
	pinCC := timeFor(true, true)
	pageCC := timeFor(true, false)

	// Non-CC: pinned faster than pageable (staging copy).
	if pinBase >= pageBase {
		t.Fatalf("pinned (%v) not faster than pageable (%v)", pinBase, pageBase)
	}
	// CC: both much slower than non-CC, and within 2% of each other
	// (Observation 1: the pinned/pageable gap disappears).
	if pinCC <= pageBase || pageCC <= pageBase {
		t.Fatalf("CC transfers not slower: pinCC=%v pageCC=%v pageBase=%v", pinCC, pageCC, pageBase)
	}
	diff := float64(pinCC-pageCC) / float64(pageCC)
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("CC pinned (%v) and pageable (%v) diverge by %.1f%%", pinCC, pageCC, 100*diff)
	}
}

func TestCCBandwidthNearCryptoBound(t *testing.T) {
	const n = 1 << 30
	r := newRig(true)
	end := r.run(func(p *sim.Proc) { r.dev.TransferHD(p, pcie.H2D, n, true) })
	gbps := float64(n) / time.Duration(end).Seconds() / 1e9
	// Fig 4a anchor: CC plateau ~3.03 GB/s, just under AES-GCM's 3.36.
	if gbps < 2.7 || gbps > 3.36 {
		t.Fatalf("CC H2D plateau %.2f GB/s, want ~3.0 (under 3.36)", gbps)
	}
}

func TestCCPinnedLabelledManaged(t *testing.T) {
	r := newRig(true)
	var managed bool
	r.run(func(p *sim.Proc) { managed = r.dev.TransferHD(p, pcie.H2D, 1<<20, true) })
	if !managed {
		t.Fatal("CC pinned transfer not flagged managed")
	}
	r2 := newRig(false)
	r2.run(func(p *sim.Proc) {
		if r2.dev.TransferHD(p, pcie.H2D, 1<<20, true) {
			t.Error("non-CC pinned transfer flagged managed")
		}
	})
}

func TestTransferDDUnaffectedByCC(t *testing.T) {
	const n = 1 << 30
	a := newRig(false)
	b := newRig(true)
	endA := a.run(func(p *sim.Proc) { a.dev.TransferDD(p, n) })
	endB := b.run(func(p *sim.Proc) { b.dev.TransferDD(p, n) })
	if endA != endB {
		t.Fatalf("D2D differs under CC: %v vs %v", endA, endB)
	}
}

func TestFuseCombinesWork(t *testing.T) {
	a := KernelSpec{Name: "a", FLOPs: 10, MemBytes: 5, CodeBytes: 100, Blocks: 8, ThreadsPerBlock: 128}
	b := KernelSpec{Name: "b", FLOPs: 20, MemBytes: 7, CodeBytes: 50, Blocks: 4, ThreadsPerBlock: 256}
	f := Fuse("ab", a, b)
	if f.FLOPs != 30 || f.MemBytes != 12 || f.CodeBytes != 150 {
		t.Fatalf("fused work wrong: %+v", f)
	}
	if f.Blocks != 8 || f.ThreadsPerBlock != 256 {
		t.Fatalf("fused dims wrong: %+v", f)
	}
}

func TestMarkerFiresAfterPriorWork(t *testing.T) {
	r := newRig(false)
	ch := r.dev.NewChannel()
	var markerAt sim.Time
	r.run(func(p *sim.Proc) {
		ch.SubmitKernel(KernelSpec{Name: "k", Fixed: 5 * time.Millisecond}, 1, false)
		m := ch.SubmitMarker()
		m.Wait(p)
		markerAt = p.Now()
	})
	if time.Duration(markerAt) < 5*time.Millisecond {
		t.Fatalf("marker fired at %v before kernel finished", markerAt)
	}
}

// Property: UVM kernels are never faster under CC, and kernel time grows
// monotonically with FLOPs.
func TestPropertyKernelTimeMonotone(t *testing.T) {
	r := newRig(false)
	f := func(flops uint32, mem uint32) bool {
		s1 := KernelSpec{Name: "k", Blocks: 1024, ThreadsPerBlock: 256,
			FLOPs: float64(flops), MemBytes: int64(mem)}
		s2 := s1
		s2.FLOPs *= 2
		s2.MemBytes *= 2
		return r.dev.KernelTime(s2) >= r.dev.KernelTime(s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUVMKernelSlowerUnderCC(t *testing.T) {
	runKernel := func(cc bool) time.Duration {
		r := newRig(cc)
		ch := r.dev.NewChannel()
		rng := r.dev.UVM().NewRange(64 << 20)
		r.run(func(p *sim.Proc) {
			spec := KernelSpec{Name: "uvmk", Fixed: time.Millisecond,
				Managed: []ManagedAccess{{Range: rng, Bytes: 64 << 20}}}
			ch.SubmitKernel(spec, 1, false).Wait(p)
		})
		return r.tracer.OfKind(trace.KindKernel)[0].Duration()
	}
	base := runKernel(false)
	cc := runKernel(true)
	if ratio := float64(cc) / float64(base); ratio < 3 {
		t.Fatalf("UVM kernel under CC only %.1fx slower (%v vs %v)", ratio, cc, base)
	}
}
