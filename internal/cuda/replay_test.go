package cuda

import (
	"testing"
	"time"

	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
)

// replayModes are the protection modes the copy-replay oracle covers.
var replayModes = []string{"off", "tdx-h100", "tdx-h100+pipelined",
	"tee-io-direct", "tee-io-bridge", "tee-io-bridge+pipelined"}

// copyRun is what one run of the copy schedule produced.
type copyRun struct {
	start, done []sim.Time // per copy: MemcpyA call and landing
	fired       []uint64   // per copy: events fired from call to landing
	end         sim.Time
	total       uint64 // events fired in the whole run
	stats       tdx.Stats
	crypto      time.Duration
	link        pcie.Counters
	windows     [][2]sim.Time // when the rival held something or woke
	copySW      time.Duration // from a copy's call to its kick
}

// runCopySchedule drives repeated pinned and pageable H2D and D2H copies
// from an actor chain on a fresh runtime, next to a rival process that holds
// the link, fills the bounce pool, takes the crypto worker and wakes at
// times that fall inside some copies. Untraced, the runtime may replay the
// copies nothing disturbs; traced, every copy runs its chain.
func runCopySchedule(t *testing.T, mode string, traced bool) copyRun {
	t.Helper()
	cfg, err := PlatformConfig("", mode)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	rt := New(eng, cfg)
	if !traced {
		rt.SetObserver(nil)
	}
	r := copyRun{copySW: cfg.Host.CopySW}
	hostDone := false
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		const size = 9 << 20 // three 4 MiB chunks at most
		dev := c.Malloc("dev", size)
		pinned := c.MallocHost("pinned", size)
		pageable := c.HostBuffer("pageable", size)
		type copySpec struct {
			dst, src *Buffer
			n        int64
		}
		var copies []copySpec
		for round := 0; round < 6; round++ {
			for _, n := range []int64{512, 64 << 10, size} {
				copies = append(copies,
					copySpec{dev, pinned, n}, copySpec{dev, pageable, n},
					copySpec{pinned, dev, n}, copySpec{pageable, dev, n})
			}
		}
		p.Await(func(a *sim.Actor, step func(any), state any) {
			i := 0
			var firedAt uint64
			var next func(any)
			next = func(any) {
				if i > 0 {
					r.done = append(r.done, a.Now())
					r.fired = append(r.fired, eng.Fired()-firedAt)
				}
				if i == len(copies) {
					step(state)
					return
				}
				cp := copies[i]
				i++
				r.start = append(r.start, a.Now())
				firedAt = eng.Fired()
				c.MemcpyA(a, cp.dst, cp.src, cp.n, next, nil)
			}
			next(nil)
		})
		hostDone = true
	})
	eng.Spawn("rival", func(p *sim.Proc) {
		gaps := []time.Duration{150 * time.Microsecond, 2300 * time.Microsecond,
			40 * time.Microsecond, 900 * time.Microsecond, 5 * time.Millisecond, 13 * time.Microsecond}
		pl := rt.Platform()
		pool := pl.Params().BounceBufBytes
		for k := 0; !hostDone; k++ {
			p.Sleep(gaps[k%len(gaps)])
			t0 := p.Now()
			switch k % 5 {
			case 0:
				rt.Link().Transfer(p, pcie.H2D, 2<<20)
			case 1:
				if pl.SoftwareCryptoPath() {
					// Leave less room than the smallest copy needs.
					pl.BounceAcquire(p, pool-256)
					p.Sleep(300 * time.Microsecond)
					pl.BounceRelease(pool - 256)
				}
			case 2:
				// A bare wake-up: a pending event inside a copy.
			case 3:
				rt.Link().Transfer(p, pcie.D2H, 64<<10)
			case 4:
				pl.Encrypt(p, 8<<20)
			}
			r.windows = append(r.windows, [2]sim.Time{t0, p.Now()})
		}
	})
	eng.Run()
	r.end, r.total = eng.Now(), eng.Stats().Fired
	r.stats, r.crypto, r.link = rt.Platform().Stats(), rt.Platform().CryptoBusy(), rt.Link().Counters()
	return r
}

// TestCopyReplayDifferential is the oracle for copy replay: with the
// recorder dropped, copies nothing can observe land through a learned record instead
// of their step chain, and every simulated result — when each copy lands,
// when the run ends, and every substrate counter — must match the traced
// run, where every copy runs its chain. Copies the rival disturbs must still
// run their chain, and the untraced run must fire fewer events overall.
func TestCopyReplayDifferential(t *testing.T) {
	for _, mode := range replayModes {
		t.Run(mode, func(t *testing.T) {
			slow := runCopySchedule(t, mode, true)
			fast := runCopySchedule(t, mode, false)
			if len(slow.done) != len(fast.done) {
				t.Fatalf("%d copies landed untraced, %d traced", len(fast.done), len(slow.done))
			}
			for i := range slow.done {
				if slow.start[i] != fast.start[i] || slow.done[i] != fast.done[i] {
					t.Fatalf("copy %d: untraced [%v, %v], traced [%v, %v]",
						i, fast.start[i], fast.done[i], slow.start[i], slow.done[i])
				}
			}
			if slow.end != fast.end {
				t.Errorf("run ends at %v untraced, %v traced", fast.end, slow.end)
			}
			if slow.stats != fast.stats {
				t.Errorf("tdx.Stats untraced %+v, traced %+v", fast.stats, slow.stats)
			}
			if slow.crypto != fast.crypto {
				t.Errorf("crypto busy untraced %v, traced %v", fast.crypto, slow.crypto)
			}
			if slow.link != fast.link {
				t.Errorf("link counters untraced %+v, traced %+v", fast.link, slow.link)
			}
			if fast.total >= slow.total {
				t.Errorf("untraced run fired %d events, traced %d: no copy replayed", fast.total, slow.total)
			}
			// A rival window that reaches past a copy's kick and starts
			// before its landing was pending or holding at the kick, so
			// that copy must have run its chain.
			contended := 0
			for i := range slow.done {
				kick := slow.start[i].Add(slow.copySW)
				hit := false
				for _, w := range slow.windows {
					if w[1] > kick && w[0] < slow.done[i] {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				contended++
				if fast.fired[i] != slow.fired[i] {
					t.Errorf("contended copy %d fired %d events untraced, %d traced: it was replayed",
						i, fast.fired[i], slow.fired[i])
				}
			}
			t.Logf("%d of %d copies contended; %d events untraced, %d traced", contended, len(slow.done), fast.total, slow.total)
			if contended == 0 {
				t.Error("the rival disturbed no copy; the schedule tests nothing")
			}
		})
	}
}

// replayLoop is an actor chain of uncontended 512 B H2D copies on an
// untraced runtime: after the first, which learns, every copy replays.
type replayLoop struct {
	c        *Context
	a        *sim.Actor
	dst, src *Buffer
	left     int
	step     func(any)
	state    any
}

func replayNext(x any) {
	l := x.(*replayLoop)
	if l.left == 0 {
		l.step(l.state)
		return
	}
	l.left--
	l.c.MemcpyA(l.a, l.dst, l.src, 512, replayNext, l)
}

// withReplayLoop runs body inside a process bound to an untraced tdx-h100
// runtime, with the loop's buffers allocated and one copy learned; run
// drives l.left copies.
func withReplayLoop(tb testing.TB, body func(p *sim.Proc, l *replayLoop, run func())) {
	cfg, err := PlatformConfig("", "tdx-h100")
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	rt := New(eng, cfg)
	rt.SetObserver(nil)
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		l := &replayLoop{c: c, dst: c.Malloc("d", 512), src: c.MallocHost("h", 512)}
		start := func(a *sim.Actor, step func(any), state any) {
			l.a, l.step, l.state = a, step, state
			replayNext(l)
		}
		run := func() { p.Await(start) }
		l.left = 1
		run()
		body(p, l, run)
	})
	eng.Run()
}

// TestMemoizedCopyDoesNotAllocate: a replayed copy costs no allocation and
// fires only its kick, where the chain crosses MMIO, bounce, crypto and
// DMA steps.
func TestMemoizedCopyDoesNotAllocate(t *testing.T) {
	const perRun = 100
	withReplayLoop(t, func(p *sim.Proc, l *replayLoop, run func()) {
		fired := p.Engine().Fired()
		if n := testing.AllocsPerRun(20, func() {
			l.left = perRun
			run()
		}); n != 0 {
			t.Errorf("%d replayed copies allocate %.1f times, want 0", perRun, n)
		}
		// AllocsPerRun calls its function once more than asked, to warm up.
		if got := float64(p.Engine().Fired()-fired) / (21 * perRun); got > 1.01 {
			t.Errorf("%.2f events per replayed copy, want 1", got)
		}
	})
}

// BenchmarkMemcpyAReplayed times an uncontended, repeated 512 B H2D copy on
// an untraced runtime: the replay path.
func BenchmarkMemcpyAReplayed(b *testing.B) {
	b.ReportAllocs()
	withReplayLoop(b, func(p *sim.Proc, l *replayLoop, run func()) {
		l.left = b.N
		b.ResetTimer()
		run()
		b.StopTimer()
	})
}

// TestLearnedCopyMatchesReplay: LearnedCopy predicts a replayed copy's time
// from call to landing, and CreditCopies(n) adds exactly what n replays
// add, which is what lets a caller fold replayed copies into one step.
func TestLearnedCopyMatchesReplay(t *testing.T) {
	withReplayLoop(t, func(p *sim.Proc, l *replayLoop, run func()) {
		rt := l.c.rt
		if _, ok := l.c.LearnedCopy(l.dst, l.src, 256); ok {
			t.Error("a copy size never run reports a learned cost")
		}
		d, ok := l.c.LearnedCopy(l.dst, l.src, 512)
		if !ok {
			t.Fatal("a learned, uncontended copy does not report as replayable")
		}
		const n = 3
		before, start := rt.copyCounters(), p.Now()
		l.left = n
		run()
		if got := p.Now().Sub(start); got != n*d {
			t.Errorf("%d replayed copies took %v, LearnedCopy predicts %v each", n, got, d)
		}
		replayed := rt.copyCounters()
		l.c.CreditCopies(l.dst, l.src, 512, n)
		credited := rt.copyCounters()
		if got, want := credited.tdx.Sub(replayed.tdx), replayed.tdx.Sub(before.tdx); got != want {
			t.Errorf("CreditCopies added platform stats %+v, %d replays %+v", got, n, want)
		}
		if got, want := credited.crypto-replayed.crypto, replayed.crypto-before.crypto; got != want {
			t.Errorf("CreditCopies added crypto busy %v, %d replays %v", got, n, want)
		}
		if got, want := credited.link.Sub(replayed.link), replayed.link.Sub(before.link); got != want {
			t.Errorf("CreditCopies added link counters %+v, %d replays %+v", got, n, want)
		}
	})
}
