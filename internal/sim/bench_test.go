package sim

// Engine microbenchmarks for the hot paths the arena/4-ary-heap rework
// targets. Run with:  go test ./internal/sim -bench=. -benchmem

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleFire measures the bare schedule->fire cycle: one
// event in flight, arena warm, so steady state should be allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	e.Schedule(0, fn) // warm the arena
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Nanosecond, fn)
		e.Run()
	}
}

// BenchmarkEngineScheduleFireDepth256 is the same cycle against a populated
// heap — the sift cost at realistic queue depths.
func BenchmarkEngineScheduleFireDepth256(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	far := 365 * 24 * time.Hour // keep 256 background events pending
	for i := 0; i < 256; i++ {
		e.Schedule(far+Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Nanosecond, fn)
		e.RunUntil(e.Now().Add(time.Nanosecond))
	}
}

// BenchmarkProcSleepUncontended measures a lone process's Sleep: nothing
// else is pending, so the clock advances inline with no context switch.
func BenchmarkProcSleepUncontended(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkProcContextSwitch measures a Sleep that must yield: an event is
// kept pending at each wake-up instant, so every Sleep enters the dispatch
// loop, fires the pending event and pops its own resume. The yielding
// process drives the loop itself, so no goroutine switch happens after the
// start; BenchmarkProcCrossSwitch measures a real one.
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	e.Spawn("switcher", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(time.Nanosecond, nop)
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
	if h := e.Stats().Handoffs; h != 1 {
		b.Fatalf("Handoffs = %d, want only the start", h)
	}
}

// BenchmarkProcCrossSwitch measures a real goroutine switch: two processes
// sleep in lockstep, so each Sleep pops the other's resume and passes it
// the loop.
func BenchmarkProcCrossSwitch(b *testing.B) {
	e := NewEngine()
	n := b.N
	for _, name := range []string{"ping", "pong"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	// Two starts, then one switch per Sleep.
	if h := e.Stats().Handoffs; h != 2*uint64(n)+2 {
		b.Fatalf("Handoffs = %d, want %d", h, 2*n+2)
	}
}

// BenchmarkQueuePutGet measures the producer/consumer round trip through a
// typed command queue, including the process context switches.
func BenchmarkQueuePutGet(b *testing.B) {
	type cmd struct {
		kind  int
		bytes int64
	}
	e := NewEngine()
	q := NewQueue[cmd](e)
	e.SpawnDaemon("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Put(cmd{kind: i & 3, bytes: int64(i)})
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkQueuePutTryGet isolates the queue data structure itself (no
// blocking, no context switch).
func BenchmarkQueuePutTryGet(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int64](e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(int64(i))
		q.TryGet()
	}
}

// BenchmarkSignalBroadcast measures a one-to-N completion broadcast — the
// resume-batching fast path.
func BenchmarkSignalBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		s := NewSignal(e)
		for w := 0; w < 8; w++ {
			e.Spawn("w", func(p *Proc) { s.Wait(p) })
		}
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(time.Nanosecond)
			s.Fire()
		})
		e.Run()
	}
}
