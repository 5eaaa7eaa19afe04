package cuda

import (
	"fmt"

	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
)

// copyClass resolves a (dst, src) pair into a transfer direction.
type copyClass struct {
	kind   trace.Kind
	dir    pcie.Direction
	pinned bool
	d2d    bool
}

// classify maps a (dst, src) buffer pair to its transfer class. It panics
// on a host-to-host pair, which is not a CUDA transfer.
func classify(dst, src *Buffer) copyClass {
	dstDev := dst.kind == DeviceMem
	srcDev := src.kind == DeviceMem
	switch {
	case dstDev && srcDev:
		return copyClass{kind: trace.KindMemcpyD2D, d2d: true}
	case dstDev && !srcDev:
		return copyClass{kind: trace.KindMemcpyH2D, dir: pcie.H2D, pinned: src.kind == PinnedHost}
	case !dstDev && srcDev:
		return copyClass{kind: trace.KindMemcpyD2H, dir: pcie.D2H, pinned: dst.kind == PinnedHost}
	default:
		panic(fmt.Sprintf("cuda: host-to-host copy (%s -> %s) is not a CUDA transfer",
			src.kind, dst.kind))
	}
}

// checkCopy validates a Memcpy request, panicking — as the modelled CUDA
// calls would fail with sticky errors — on freed buffers, non-positive or
// overflowing sizes, and explicit copies of managed memory.
func (c *Context) checkCopy(dst, src *Buffer, bytes int64) {
	dst.checkLive("Memcpy dst")
	src.checkLive("Memcpy src")
	if bytes <= 0 {
		panic("cuda: Memcpy of non-positive size")
	}
	if bytes > dst.size || bytes > src.size {
		panic(fmt.Sprintf("cuda: Memcpy of %d bytes overflows buffers (dst %d, src %d)",
			bytes, dst.size, src.size))
	}
	if dst.kind == ManagedMem || src.kind == ManagedMem {
		panic("cuda: explicit Memcpy on managed buffers; access them from kernels instead")
	}
}

// Memcpy is the blocking cudaMemcpy: the calling process drives the whole
// transfer. CUDA memory-copy APIs are blocking, which is why copies sit on
// the critical path (Sec. VI-A).
func (c *Context) Memcpy(dst, src *Buffer, bytes int64) {
	c.p.Await(func(a *sim.Actor, step func(any), state any) {
		c.MemcpyA(a, dst, src, bytes, step, state)
	})
}

// memcpyFrame carries one in-flight MemcpyA through its step chain.
type memcpyFrame struct {
	c        *Context
	a        *sim.Actor
	cl       copyClass
	bytes    int64
	managed  bool
	learning bool      // this copy is the runtime's learner (see memcpyKicked)
	replay   *copyCost // set while a replayed copy sleeps
	sp       obs.Span
	step     func(any)
	state    any
}

// memcpyName labels the host-API span for a transfer class.
func memcpyName(cl copyClass) string {
	switch {
	case cl.d2d:
		return "memcpy-d2d"
	case cl.dir == pcie.H2D:
		return "memcpy-h2d"
	default:
		return "memcpy-d2h"
	}
}

// MemcpyA is the continuation form of Memcpy, for run-to-completion
// callers (the serve scheduler's swap and token-id traffic).
func (c *Context) MemcpyA(a *sim.Actor, dst, src *Buffer, bytes int64, step func(any), state any) {
	c.checkCopy(dst, src, bytes)
	cl := classify(dst, src)
	f := c.rt.memcpyFrames.Get()
	f.c, f.a, f.cl, f.bytes, f.step, f.state = c, a, cl, bytes, step, state
	f.sp = c.rt.api.BeginEvent(memcpyName(cl)).Bytes(bytes)
	a.Sleep(c.rt.params.CopySW, memcpyKicked, f)
}

// copyKey packs what makes two host-device copies run the same chain on
// one runtime — direction, pinning and size — into one map key.
func copyKey(cl copyClass, bytes int64) int64 {
	k := bytes<<2 | int64(cl.dir)<<1
	if cl.pinned {
		k |= 1
	}
	return k
}

// copyCounters are the substrate counters a host-device copy chain adds
// to: the platform's Stats, its crypto worker's busy time, and the link's.
type copyCounters struct {
	tdx    tdx.Stats
	crypto sim.Duration
	link   pcie.Counters
}

func (rt *Runtime) copyCounters() copyCounters {
	return copyCounters{rt.pl.Stats(), rt.pl.CryptoBusy(), rt.link.Counters()}
}

// copyCost is what one undisturbed copy chain did, from its kick to its
// landing: how long it took, how it is labelled, and what it added to the
// substrate counters.
type copyCost struct {
	d       sim.Duration
	managed bool
	added   copyCounters
}

// copyLearn is the snapshot the learning copy takes at its kick.
type copyLearn struct {
	key     int64
	at      sim.Time
	next    sim.Time // Engine.NextAt at the kick
	pending int      // events pending at the kick
	before  copyCounters
}

// unobserved reports whether nothing can see a copy's intermediate steps
// or be woken by them: no recorder, and the link and the host crypto
// worker and bounce pool free with no one waiting.
func (rt *Runtime) unobserved() bool {
	return rt.rec == nil && rt.link.Idle() && rt.pl.Idle()
}

// memcpyKicked runs once the host-side software cost has elapsed, as a step
// of its own: the caller's step has returned, so every event it scheduled
// is pending. A host-device copy that nothing can observe and that would
// land strictly before the next pending event runs alone, so its chain is a
// fixed function of its key. The first such copy of each key runs the chain
// and records its cost (copyLearn); later ones replay the record: the clock
// jumps to the landing (Actor.SleepAlone) and the counters take the
// chain's changes. Every other copy runs the chain.
func memcpyKicked(x any) {
	f := x.(*memcpyFrame)
	rt := f.c.rt
	if f.cl.d2d {
		rt.dev.TransferDDA(f.a, f.bytes, memcpyLanded, f)
		return
	}
	if rt.unobserved() {
		key := copyKey(f.cl, f.bytes)
		if c := rt.copyCosts[key]; c != nil {
			f.replay = c
			if f.a.SleepAlone(c.d, memcpyReplayed, f) {
				return
			}
			f.replay = nil
		} else if !rt.learning {
			rt.learning, f.learning = true, true
			rt.learn = copyLearn{key: key, at: f.a.Now(), next: rt.eng.NextAt(),
				pending: rt.eng.Pending(), before: rt.copyCounters()}
		}
	}
	rt.pl.MMIOA(f.a, memcpyMMIOed, f) // copy-engine kick
}

func memcpyMMIOed(x any) {
	f := x.(*memcpyFrame)
	// A zero-byte transfer completes inline (checkCopy excludes it here,
	// but keep the flag ordering safe regardless); a real one always
	// crosses a DMA sleep, so the assignment lands before memcpyLanded.
	f.managed = false
	f.managed = f.c.rt.dev.TransferHDA(f.a, f.cl.dir, f.bytes, f.cl.pinned, memcpyLanded, f)
}

// memcpyReplayed lands a replayed copy: it credits the counter changes the
// chain would have made, then lands as the chain would.
func memcpyReplayed(x any) {
	f := x.(*memcpyFrame)
	f.managed = f.replay.managed
	f.c.rt.credit(&f.replay.added)
	memcpyLanded(f)
}

// credit adds one replayed chain's counter changes to the substrate.
func (rt *Runtime) credit(add *copyCounters) {
	rt.pl.Credit(&add.tdx, add.crypto)
	rt.link.Credit(&add.link)
}

// learned ends the learning copy's chain: the cost is recorded only if the
// chain ran alone — it landed strictly before the next event pending at its
// kick, left no event of its own behind, and freed everything it held.
func (rt *Runtime) learned(managed bool) {
	rt.learning = false
	l := &rt.learn
	now := rt.eng.Now()
	if now >= l.next || rt.eng.Pending() != l.pending || !rt.link.Idle() || !rt.pl.Idle() {
		return
	}
	if rt.copyCosts == nil {
		rt.copyCosts = make(map[int64]*copyCost)
	}
	after := rt.copyCounters()
	rt.copyCosts[l.key] = &copyCost{d: now.Sub(l.at), managed: managed, added: copyCounters{
		tdx:    after.tdx.Sub(l.before.tdx),
		crypto: after.crypto - l.before.crypto,
		link:   after.link.Sub(l.before.link),
	}}
}

// learnedCost returns the cost a MemcpyA of (dst, src, bytes) would replay
// if it were kicked now, or nil when it would run its chain: a device-to-
// device copy, a runtime something can observe, or a key not yet learned.
func (c *Context) learnedCost(dst, src *Buffer, bytes int64) *copyCost {
	c.checkCopy(dst, src, bytes)
	cl := classify(dst, src)
	if cl.d2d || !c.rt.unobserved() {
		return nil
	}
	return c.rt.copyCosts[copyKey(cl, bytes)]
}

// LearnedCopy reports whether a MemcpyA of (dst, src, bytes) called now
// would replay its learned cost rather than run its chain (see
// memcpyKicked), given that nothing else fires before it lands, and if so
// the simulated time from the call to the landing (the CopySW kick plus the
// replayed chain, each clamped as Sleep clamps it). A caller that knows
// nothing else fires meanwhile can fold the copy into a closed-form step and
// credit its counters with CreditCopies. Like MemcpyA it panics on an
// invalid copy (checkCopy).
func (c *Context) LearnedCopy(dst, src *Buffer, bytes int64) (sim.Duration, bool) {
	if cost := c.learnedCost(dst, src, bytes); cost != nil {
		return max(c.rt.params.CopySW, 0) + cost.d, true
	}
	return 0, false
}

// CreditCopies credits the substrate counters with n replays of the copy
// (dst, src, bytes), exactly what n MemcpyA calls replaying it in turn
// would add. It panics unless LearnedCopy reports the copy as replayable:
// crediting a chain that would have run is a caller bug.
func (c *Context) CreditCopies(dst, src *Buffer, bytes int64, n int) {
	cost := c.learnedCost(dst, src, bytes)
	if cost == nil {
		panic("cuda: CreditCopies of a copy that would not replay")
	}
	for range n {
		c.rt.credit(&cost.added)
	}
}

func memcpyLanded(x any) {
	f := x.(*memcpyFrame)
	c := f.c
	if f.learning {
		c.rt.learned(f.managed)
	}
	kind := f.cl.kind
	if f.managed {
		// Nsight labels CC "pinned" transfers as managed D2D (Obs. 1).
		kind = trace.KindMemcpyD2D
	}
	f.sp.EndEvent(trace.Event{
		Kind: kind, Name: "cudaMemcpy", Stream: -1, Bytes: f.bytes, Managed: f.managed,
	})
	step, state := f.step, f.state
	c.rt.memcpyFrames.Put(f)
	step(state)
}

// MemcpyAsync submits the transfer to a stream and returns once the command
// is queued; the stream's channel performs the copy. Overlap with compute
// (raising the model's alpha) comes from exactly this path (Sec. VII-A).
func (c *Context) MemcpyAsync(dst, src *Buffer, bytes int64, s *Stream) {
	c.checkCopy(dst, src, bytes)
	if s == nil {
		s = c.def
	}
	cl := classify(dst, src)
	if cl.d2d {
		// Async D2D still goes through the channel; model as an H2D-free
		// command with blit timing folded into dispatch; rare in the suite.
		c.p.Sleep(c.rt.params.AsyncCopySW)
		s.ch.Copy(trace.KindMemcpyD2D, pcie.H2D, 0, false)
		return
	}
	c.p.Sleep(c.rt.params.AsyncCopySW)
	if c.rt.mode.SoftwareCryptoPath() {
		c.rt.pl.Encrypt(c.p, c.rt.params.CmdPacketBytes) // command packet
	}
	s.ch.Copy(cl.kind, cl.dir, bytes, cl.pinned)
}
