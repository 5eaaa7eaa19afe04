package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Nanosecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != Time(30) {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("events fired out of order: %v", got)
		}
	}
}

func TestEqualTimestampsFIFOBySeq(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*time.Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10 * time.Nanosecond)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(15 * time.Nanosecond)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic run length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", j, first, again)
			}
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke []Time
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(100 * time.Nanosecond)
		s.Fire()
	})
	e.Run()
	if len(woke) != 4 {
		t.Fatalf("woke %d waiters, want 4", len(woke))
	}
	for _, w := range woke {
		if w != Time(100) {
			t.Fatalf("waiter woke at %v, want 100ns", w)
		}
	}
	if !s.Fired() || s.At() != Time(100) {
		t.Fatalf("signal state wrong: fired=%v at=%v", s.Fired(), s.At())
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var at Time
	e.Spawn("p", func(p *Proc) {
		s.Fire()
		p.Sleep(time.Nanosecond)
		s.Wait(p) // already fired: no block
		at = p.Now()
	})
	e.Run()
	if at != Time(1) {
		t.Fatalf("Wait on fired signal blocked: now=%v", at)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Fire")
		}
	}()
	s.Fire()
	s.Fire()
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Nanosecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10, 20, 30}
	if len(ends) != 3 {
		t.Fatalf("got %d completions", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
	if bt := r.BusyTime(); bt != 30*time.Nanosecond {
		t.Fatalf("busy time %v, want 30ns", bt)
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Nanosecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// Two run in [0,10], two in [10,20].
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends=%v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("u", func(p *Proc) {
			p.Sleep(Duration(i) * time.Nanosecond) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100 * time.Nanosecond)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource not FIFO: %v", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Release of idle resource")
		}
	}()
	r.Release()
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Nanosecond)
			q.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("queue out of order: %v", got)
		}
	}
	if q.Puts() != 3 || q.Len() != 0 {
		t.Fatalf("queue accounting wrong: puts=%d len=%d", q.Puts(), q.Len())
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e).SetLabel("never-fired")
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("deadlock panic value %T, want string", r)
		}
		for _, want := range []string{"sim: deadlock", `proc "stuck"`, `signal "never-fired"`} {
			if !strings.Contains(msg, want) {
				t.Fatalf("deadlock report %q missing %q", msg, want)
			}
		}
	}()
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10*time.Nanosecond, func() { fired++ })
	e.Schedule(30*time.Nanosecond, func() { fired++ })
	now := e.RunUntil(Time(20))
	if fired != 1 || now != Time(20) {
		t.Fatalf("RunUntil: fired=%d now=%v", fired, now)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending=%d, want 1", e.Pending())
	}
}

// RunUntil must surface the same deadlock state Run panics on: queue
// drained with non-daemon processes still blocked.
func TestRunUntilDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic from RunUntil")
		}
	}()
	e.RunUntil(Time(100))
}

// A process whose wake-up lies beyond the deadline is waiting, not
// deadlocked: its resume event is still pending.
func TestRunUntilLeavesFutureSleepersBlocked(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(50 * time.Nanosecond) })
	now := e.RunUntil(Time(20))
	if now != Time(20) {
		t.Fatalf("now = %v, want 20ns", now)
	}
	if e.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want 1", e.Blocked())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the sleeper's wake-up", e.Pending())
	}
	if end := e.RunUntil(Time(100)); end != Time(100) {
		t.Fatalf("end = %v, want 100ns", end)
	}
	if e.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after completion, want 0", e.Blocked())
	}
}

// Daemons blocked forever must not trip RunUntil's deadlock check either.
func TestRunUntilDaemonNotDeadlock(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	if end := e.RunUntil(Time(10)); end != Time(10) {
		t.Fatalf("end = %v, want 10ns", end)
	}
	if e.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want the daemon", e.Blocked())
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) { s.Wait(p) })
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		s.Fire()
	})
	e.Run()
	st := e.Stats()
	if st.Fired == 0 || st.Fired != e.Fired() {
		t.Fatalf("Fired = %d (engine says %d)", st.Fired, e.Fired())
	}
	if st.Scheduled < st.Fired {
		t.Fatalf("Scheduled = %d < Fired = %d", st.Scheduled, st.Fired)
	}
	if st.Handoffs == 0 {
		t.Fatal("no handoffs counted despite four processes running")
	}
	if st.ActorSteps != 0 {
		t.Fatalf("ActorSteps = %d, want 0 in an all-Proc run", st.ActorSteps)
	}
	if st.HeapMaxDepth == 0 {
		t.Fatal("HeapMaxDepth not tracked")
	}
	if st.AllocsAvoided == 0 {
		t.Fatal("free-list never reused a slot across this run")
	}
}

// The engine's steady-state hot path must not allocate: schedule/fire with
// a warm arena reuses free-list slots, and direct process resumes carry no
// closures. Both Sleep paths are covered: the inline one, and the yielding
// one forced by an event pending at the wake-up instant.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	done := false
	nop := func() {}
	contended := func(p *Proc) {
		e.Schedule(time.Nanosecond, nop)
		p.Sleep(time.Nanosecond)
	}
	e.Spawn("ticker", func(p *Proc) {
		// Warm up the arena and backing arrays.
		for i := 0; i < 100; i++ {
			contended(p)
		}
		allocs := testing.AllocsPerRun(100, func() { p.Sleep(time.Nanosecond) })
		if allocs > 0 {
			t.Errorf("steady-state Sleep allocates %.1f times per op, want 0", allocs)
		}
		allocs = testing.AllocsPerRun(100, func() { contended(p) })
		if allocs > 0 {
			t.Errorf("steady-state yielding Sleep allocates %.1f times per op, want 0", allocs)
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("ticker never ran")
	}
}

// An event pending at exactly the wake-up instant was scheduled first, so it
// must still run before the sleeper: Sleep takes the slow path and yields.
func TestSleepYieldsToEventAtWakeInstant(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Schedule(10*time.Nanosecond, func() { log = append(log, "event") })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		log = append(log, "sleeper")
	})
	e.Run()
	if strings.Join(log, ",") != "event,sleeper" {
		t.Fatalf("order = %v, want the pending event first", log)
	}
	// The yielding Sleep drives the loop itself and pops its own resume
	// right after the event, so only the start switches goroutines.
	if h := e.Stats().Handoffs; h != 1 {
		t.Fatalf("Handoffs = %d, want 1 (the start)", h)
	}
}

// Sleep(0), and a negative duration clamped to it, must let an already
// scheduled same-time event run first.
func TestZeroAndNegativeSleepYieldToSameTimeEvent(t *testing.T) {
	for _, d := range []Duration{0, -5 * time.Nanosecond} {
		e := NewEngine()
		var log []string
		e.Spawn("p", func(p *Proc) {
			p.Sleep(3 * time.Nanosecond)
			e.Schedule(0, func() { log = append(log, "event") })
			p.Sleep(d)
			log = append(log, "sleeper")
			if p.Now() != 3 {
				t.Errorf("Sleep(%v) moved the clock to %v, want 3ns", d, p.Now())
			}
		})
		e.Run()
		if strings.Join(log, ",") != "event,sleeper" {
			t.Fatalf("Sleep(%v): order = %v, want the pending event first", d, log)
		}
	}
}

// With nothing else pending, a negative Sleep is a zero-length inline step.
func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v after Sleep(-1s), want 0", p.Now())
		}
	})
	e.Run()
	if st := e.Stats(); st.Fired != 2 || st.Handoffs != 1 {
		t.Fatalf("Fired = %d, Handoffs = %d; want 2 and 1", st.Fired, st.Handoffs)
	}
}

// A lone process never contends for the clock: every Sleep still counts
// one scheduled and one fired event, but only the start hands off.
func TestLoneSleepLoopCountsEventsNotHandoffs(t *testing.T) {
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	end := e.Run()
	st := e.Stats()
	if end != 100 || st.Fired != 101 || st.Scheduled != 101 || st.Handoffs != 1 {
		t.Fatalf("end %v, Fired %d, Scheduled %d, Handoffs %d; want 100ns, 101, 101, 1",
			end, st.Fired, st.Scheduled, st.Handoffs)
	}
}

// A Sleep may run inline only up to the RunUntil deadline: one landing
// exactly on it wakes within the window, one past it leaves the process
// blocked with its wake-up pending, and the next RunUntil or Run resumes
// it at the original instant.
func TestSleepRespectsRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * time.Nanosecond)
			woke = append(woke, p.Now())
		}
	})
	check := func(now Time, want []Time, blocked int) {
		t.Helper()
		if len(woke) != len(want) || e.Blocked() != blocked {
			t.Fatalf("at %v: woke %v, Blocked %d; want %v, %d", now, woke, e.Blocked(), want, blocked)
		}
		for i := range want {
			if woke[i] != want[i] {
				t.Fatalf("at %v: woke %v, want %v", now, woke, want)
			}
		}
	}
	if now := e.RunUntil(20); now != 20 {
		t.Fatalf("RunUntil(20) = %v", now)
	}
	check(20, []Time{10, 20}, 1)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the wake-up at 30ns", e.Pending())
	}
	if now := e.RunUntil(25); now != 25 {
		t.Fatalf("RunUntil(25) = %v", now)
	}
	check(25, []Time{10, 20}, 1)
	if now := e.RunUntil(35); now != 35 {
		t.Fatalf("RunUntil(35) = %v", now)
	}
	check(35, []Time{10, 20, 30}, 1)
	if end := e.Run(); end != 50 {
		t.Fatalf("Run = %v, want 50ns", end)
	}
	check(50, []Time{10, 20, 30, 40, 50}, 0)
}

// The deadlock report after inline Sleeps reads exactly as before.
func TestDeadlockReportAfterInlineSleep(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e).SetLabel("never")
	e.Spawn("stuck", func(p *Proc) {
		p.Sleep(5 * time.Nanosecond)
		s.Wait(p)
	})
	defer func() {
		const want = `sim: deadlock: 1 task(s) blocked with no pending events: proc "stuck" waiting on signal "never"`
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
		if e.Now() != 5 {
			t.Fatalf("now = %v, want 5ns", e.Now())
		}
	}()
	e.Run()
}

// Property: for any set of delays, events fire in sorted-by-time order and
// the final clock equals the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		var maxD Duration
		for _, d := range delays {
			dd := Duration(d) * time.Nanosecond
			if dd > maxD {
				maxD = dd
			}
			e.Schedule(dd, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		end := e.Run()
		if end != Time(maxD) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-1 resource, total busy time equals the sum of
// hold durations and completions never overlap.
func TestPropertySerialResourceConservation(t *testing.T) {
	f := func(holds []uint8) bool {
		e := NewEngine()
		r := NewResource(e, 1)
		var total Duration
		for _, h := range holds {
			d := Duration(h+1) * time.Nanosecond
			total += d
			e.Spawn("u", func(p *Proc) { r.Use(p, d) })
		}
		e.Run()
		return r.BusyTime() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO order for any random production schedule.
func TestPropertyQueueFIFO(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		q := NewQueue[int](e)
		count := int(n%50) + 1
		var got []int
		e.Spawn("c", func(p *Proc) {
			for i := 0; i < count; i++ {
				got = append(got, q.Get(p))
			}
		})
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < count; i++ {
				p.Sleep(Duration(rng.Intn(20)) * time.Nanosecond)
				q.Put(i)
			}
		})
		e.Run()
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Duration(j)*time.Nanosecond, func() {})
		}
		e.Run()
	}
}

func TestAccessorsAndDaemons(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	// A daemon blocked forever must not trip deadlock detection.
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	var name string
	var eng *Engine
	p := e.Spawn("worker", func(p *Proc) {
		name = p.Name()
		eng = p.Engine()
		q.Put(1)
		p.Sleep(time.Nanosecond)
	})
	end := e.Run()
	if name != "worker" || eng != e || p.Name() != "worker" {
		t.Fatal("proc accessors broken")
	}
	if end < Time(1) {
		t.Fatalf("end = %v", end)
	}
	if e.Fired() == 0 {
		t.Fatal("no events counted")
	}
	if Time(1500).String() == "" {
		t.Fatal("empty Time string")
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine()
	s1, s2 := NewSignal(e), NewSignal(e)
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		WaitAll(p, s1, s2)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		s1.Fire()
		p.Sleep(10 * time.Nanosecond)
		s2.Fire()
	})
	e.Run()
	if at != Time(20) {
		t.Fatalf("WaitAll released at %v, want 20ns", at)
	}
}

func TestResourceAccessors(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 3)
	if r.Capacity() != 3 || !r.Idle() {
		t.Fatal("resource accessors wrong")
	}
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	if q.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d", q.MaxDepth())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewResource(e, 0)
}
