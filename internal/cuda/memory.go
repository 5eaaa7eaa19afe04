package cuda

import (
	"fmt"
	"time"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/uvm"
)

// MemKind classifies a buffer's backing memory.
type MemKind int

// Buffer kinds.
const (
	DeviceMem    MemKind = iota // cudaMalloc: GPU HBM
	PinnedHost                  // cudaMallocHost: page-locked host memory
	PageableHost                // plain malloc'd host memory
	ManagedMem                  // cudaMallocManaged: UVM
)

func (k MemKind) String() string {
	switch k {
	case DeviceMem:
		return "device"
	case PinnedHost:
		return "pinned"
	case PageableHost:
		return "pageable"
	case ManagedMem:
		return "managed"
	}
	return fmt.Sprintf("MemKind(%d)", int(k))
}

// Buffer is one allocation visible to the API.
type Buffer struct {
	ctx    *Context
	kind   MemKind
	size   int64
	devOff int64
	devID  int // GPU the buffer lives on (device memory only)
	rng    *uvm.Range
	freed  bool
	label  string
}

// Size returns the buffer's byte size.
func (b *Buffer) Size() int64 { return b.size }

// Kind returns the buffer's memory kind.
func (b *Buffer) Kind() MemKind { return b.kind }

// Managed returns the UVM range backing a managed buffer, or nil.
func (b *Buffer) Managed() *uvm.Range { return b.rng }

// checkLive panics if the buffer was already freed — the simulator's
// equivalent of a use-after-free CUDA error.
func (b *Buffer) checkLive(op string) {
	if b.freed {
		panic(fmt.Sprintf("cuda: %s on freed buffer %q", op, b.label))
	}
}

// mib returns the byte count as a dimensionless number of MiB — a
// multiplier for the runtime's per-MiB cost knobs, not a data quantity.
//
//hcclint:unit Ratio
func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func perMB(d time.Duration, bytes int64) time.Duration {
	return time.Duration(float64(d) * mib(bytes))
}

// mmio charges n MMIO round trips (direct in a VM, hypercalls in a TD).
func (c *Context) mmio(n int) {
	for i := 0; i < n; i++ {
		c.rt.pl.MMIO(c.p)
	}
}

// record wraps event recording with the context's clock.
func (c *Context) record(kind trace.Kind, name string, start sim.Time, bytes int64, managed bool) {
	c.rt.Tracer().Record(trace.Event{
		Kind: kind, Name: name, Stream: -1,
		Start: start, End: c.p.Now(), Bytes: bytes, Managed: managed,
	})
}

// ensureInit performs one-time CUDA context creation on the first API call
// that needs the device (usually the first allocation): channel setup
// ioctls, whose MMIO traffic is hypercall-mediated in a TD.
func (c *Context) ensureInit() {
	rt := c.rt
	if rt.inited {
		return
	}
	rt.inited = true
	c.p.Sleep(rt.params.ContextInitSW)
	c.mmio(rt.params.ContextInitMMIOs)
}

// Malloc is cudaMalloc: device-memory allocation. Under CC the driver
// ioctls are hypercall-mediated and page-table updates travel the encrypted
// channel, which is what makes it ~5.7x slower (Fig. 6). It panics when
// device memory is exhausted (the modelled cudaMalloc's fatal error).
func (c *Context) Malloc(label string, size int64) *Buffer {
	c.ensureInit()
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.MallocSW)
	c.mmio(rt.params.MallocMMIOs)
	if rt.mode.PrivateAllocs() {
		c.p.Sleep(perMB(rt.params.MallocPerMBCC, size))
		rt.pl.AcceptPrivate(c.p, min(size/64, 128<<10)) // driver control structures
	} else {
		c.p.Sleep(perMB(rt.params.MallocPerMB, size))
	}
	off, err := rt.dev.Mem().Alloc(size)
	if err != nil {
		panic("cuda: " + err.Error())
	}
	b := &Buffer{ctx: c, kind: DeviceMem, size: size, devOff: off, label: label}
	c.record(trace.KindAlloc, "cudaMalloc", start, size, false)
	return b
}

// MallocHost is cudaMallocHost: pinned host memory. In CC mode native
// pinning is impossible (the GPU cannot DMA TD-private pages), so the
// allocation is backed by UVM-style shared registration — the root cause of
// Observation 1.
func (c *Context) MallocHost(label string, size int64) *Buffer {
	c.ensureInit()
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.HostAllocSW)
	c.mmio(rt.params.HostAllocMMIOs)
	if !rt.mode.HostPinWorks() {
		c.p.Sleep(perMB(rt.params.HostAllocPerMBCC, size))
	} else {
		c.p.Sleep(perMB(rt.params.HostAllocPerMB, size))
	}
	b := &Buffer{ctx: c, kind: PinnedHost, size: size, label: label}
	c.record(trace.KindAlloc, "cudaMallocHost", start, size, !rt.mode.HostPinWorks())
	return b
}

// HostBuffer is plain (pageable) host memory: no CUDA call, no cost.
func (c *Context) HostBuffer(label string, size int64) *Buffer {
	return &Buffer{ctx: c, kind: PageableHost, size: size, label: label}
}

// MallocManaged is cudaMallocManaged: a UVM range. Allocation is lazy and
// therefore cheaper than cudaMalloc in non-CC mode (the paper measures
// 0.51x); CC adds hypercall-mediated registration.
func (c *Context) MallocManaged(label string, size int64) *Buffer {
	c.ensureInit()
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.ManagedAllocSW)
	c.mmio(rt.params.ManagedAllocMMIOs)
	if rt.mode.PrivateAllocs() {
		c.p.Sleep(perMB(rt.params.ManagedAllocPerMBCC, size))
	} else {
		c.p.Sleep(perMB(rt.params.ManagedAllocPerMB, size))
	}
	b := &Buffer{ctx: c, kind: ManagedMem, size: size, rng: rt.dev.UVM().NewRange(size), label: label}
	c.record(trace.KindAlloc, "cudaMallocManaged", start, size, true)
	return b
}

// Free releases a device or managed buffer (cudaFree). CC frees pay page
// scrubbing, SEPT removal and TLB shootdowns — the largest management
// multiplier the paper measures (10.5x; 18.2x for resident UVM memory).
// It panics on double frees and on host buffers (use FreeHost).
func (c *Context) Free(b *Buffer) {
	b.checkLive("Free")
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.FreeSW)
	c.mmio(rt.params.FreeMMIOs)
	switch b.kind {
	case DeviceMem:
		if rt.mode.PrivateAllocs() {
			c.p.Sleep(perMB(rt.params.FreePerMBCC, b.size))
			rt.pl.ScrubPrivate(c.p, min(b.size/16, 1<<20))
		} else {
			c.p.Sleep(perMB(rt.params.FreePerMB, b.size))
		}
		dev, _, derr := rt.deviceByID(b.devID)
		if derr != nil {
			panic("cuda: " + derr.Error())
		}
		if err := dev.Mem().Release(b.devOff); err != nil {
			panic("cuda: " + err.Error())
		}
	case ManagedMem:
		resBytes := b.rng.ResidentPages() * rt.dev.UVM().Params().PageBytes
		if rt.mode.PrivateAllocs() {
			c.p.Sleep(perMB(rt.params.ManagedFreePerResMBCC, resBytes))
			c.p.Sleep(perMB(rt.params.FreePerMBCC, b.size) / 4)
		} else {
			c.p.Sleep(perMB(rt.params.ManagedFreePerResMB, resBytes))
			c.p.Sleep(perMB(rt.params.FreePerMB, b.size) / 4)
		}
		b.rng.Release()
	default:
		panic(fmt.Sprintf("cuda: Free of %s buffer %q (use FreeHost)", b.kind, b.label))
	}
	b.freed = true
	c.record(trace.KindFree, "cudaFree", start, b.size, b.kind == ManagedMem)
}

// FreeHost releases pinned host memory (cudaFreeHost). It panics on
// double frees and on device or managed buffers (use Free).
func (c *Context) FreeHost(b *Buffer) {
	b.checkLive("FreeHost")
	if b.kind == PageableHost {
		b.freed = true // plain free(), no CUDA cost
		return
	}
	if b.kind != PinnedHost {
		panic(fmt.Sprintf("cuda: FreeHost of %s buffer %q", b.kind, b.label))
	}
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.FreeSW)
	c.mmio(rt.params.FreeMMIOs / 2)
	if !rt.mode.HostPinWorks() {
		c.p.Sleep(perMB(rt.params.FreePerMBCC, b.size) / 2)
	} else {
		c.p.Sleep(perMB(rt.params.FreePerMB, b.size))
	}
	b.freed = true
	c.record(trace.KindFree, "cudaFreeHost", start, b.size, !rt.mode.HostPinWorks())
}

// Prefetch is cudaMemPrefetchAsync followed by a stream sync: it migrates
// the first n bytes of a managed buffer to the device in driver-initiated
// full batches, sidestepping the per-fault round trips that make encrypted
// paging so expensive. The time is charged to the calling host process.
// It panics on freed or non-managed buffers.
func (c *Context) Prefetch(b *Buffer, n int64) {
	b.checkLive("Prefetch")
	if b.kind != ManagedMem {
		panic(fmt.Sprintf("cuda: Prefetch on %s buffer %q", b.kind, b.label))
	}
	c.p.Sleep(c.rt.params.AsyncCopySW)
	b.rng.PrefetchTo(c.p, n)
}

// HostTouch models CPU-side access to a managed buffer's first n bytes:
// device-resident pages migrate back (encrypted paging under CC). This is
// how UVM applications read results without an explicit D2H copy. It
// panics on freed or non-managed buffers.
func (c *Context) HostTouch(b *Buffer, n int64) {
	b.checkLive("HostTouch")
	if b.kind != ManagedMem {
		panic(fmt.Sprintf("cuda: HostTouch on %s buffer %q", b.kind, b.label))
	}
	b.rng.HostAccess(c.p, n)
}
