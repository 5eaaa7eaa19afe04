package sim

import (
	"math"
	"testing"
)

// TestNextAtEmptyQueue: with nothing pending, NextAt is unbounded under
// Run and just past the deadline under RunUntil.
func TestNextAtEmptyQueue(t *testing.T) {
	e := NewEngine()
	var got Time
	e.Schedule(5, func() { got = e.NextAt() })
	e.Run()
	if got != math.MaxInt64 {
		t.Errorf("NextAt under Run with an empty queue = %v, want MaxInt64", got)
	}

	e = NewEngine()
	e.Schedule(5, func() { got = e.NextAt() })
	e.RunUntil(40)
	if got != 41 {
		t.Errorf("NextAt under RunUntil(40) with an empty queue = %v, want 41", got)
	}
}

// TestNextAtHeldVsHeap: NextAt sees the queue's hold slot as well as its
// heap, whichever holds the earliest event.
func TestNextAtHeldVsHeap(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(5, func() {
		e.Schedule(20, func() {}) // held: the only pending event
		got = append(got, e.NextAt())
		e.Schedule(10, func() { got = append(got, e.NextAt()) }) // evicts 25 into the heap
		got = append(got, e.NextAt())
		e.Schedule(30, func() {}) // heap, behind the held 15
		got = append(got, e.NextAt())
	})
	e.Run()
	want := []Time{25, 15, 15, 25}
	if len(got) != len(want) {
		t.Fatalf("NextAt sequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextAt sequence = %v, want %v", got, want)
		}
	}
}

// TestNextAtPastHorizon: under RunUntil an event beyond the deadline does
// not fire in this run, so NextAt reports the instant past the deadline.
func TestNextAtPastHorizon(t *testing.T) {
	e := NewEngine()
	var inside, past Time
	e.Schedule(10, func() { inside = e.NextAt() })
	e.Schedule(30, func() {})
	e.Schedule(100, func() {})
	e.Schedule(20, func() { past = e.NextAt() })
	e.RunUntil(50)
	if inside != 20 {
		t.Errorf("NextAt at 10 = %v, want the pending event at 20", inside)
	}
	if past != 30 {
		t.Errorf("NextAt at 20 = %v, want the pending event at 30", past)
	}
	e.Schedule(0, func() { past = e.NextAt() })
	e.RunUntil(60)
	if past != 61 {
		t.Errorf("NextAt with only an event at 100 under RunUntil(60) = %v, want 61", past)
	}
}

// TestResourceIdle: a resource is idle only with no unit held and no
// waiter parked, and AddBusy credits BusyTime.
func TestResourceIdle(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var states []bool
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		states = append(states, r.Idle()) // held
		p.Sleep(10)
		states = append(states, r.Idle()) // held, one waiter parked
		r.Release()                       // handed to the waiter
		states = append(states, r.Idle())
	})
	e.Spawn("waiter", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(5)
		r.Release()
		states = append(states, r.Idle()) // released, no one waiting
	})
	e.Run()
	want := []bool{false, false, false, true}
	if len(states) != len(want) {
		t.Fatalf("Idle sequence = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("Idle sequence = %v, want %v", states, want)
		}
	}
	if !NewResource(e, 2).Idle() {
		t.Error("a fresh resource is not idle")
	}
	r.AddBusy(7)
	if got := r.BusyTime(); got != 22 {
		t.Errorf("BusyTime after AddBusy(7) = %v, want 15+7", got)
	}
}

// TestSleepAloneMatchesSleep: a lone tail sleep lands at the same time and
// in the same order as the queued Sleep it stands for, without an event.
func TestSleepAloneMatchesSleep(t *testing.T) {
	run := func(alone bool) (log []Time, fired uint64) {
		e := NewEngine()
		e.Schedule(100, func() { log = append(log, -e.Now()) })
		e.SpawnActor("a", func(a *Actor) {
			step := func(any) {
				log = append(log, a.Now())
				a.Sleep(50, func(any) { log = append(log, a.Now()); a.Done() }, nil)
			}
			if alone {
				if !a.SleepAlone(30, step, nil) {
					t.Error("SleepAlone(30) with the next event at 100 did not run inline")
				}
				return
			}
			a.Sleep(30, step, nil)
		})
		e.Run()
		return log, e.Stats().Fired
	}
	slow, slowFired := run(false)
	fast, fastFired := run(true)
	if len(slow) != len(fast) {
		t.Fatalf("log %v with SleepAlone, want %v", fast, slow)
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("log %v with SleepAlone, want %v", fast, slow)
		}
	}
	if fastFired != slowFired-1 {
		t.Errorf("SleepAlone fired %d events, want one fewer than Sleep's %d", fastFired, slowFired)
	}
}

// TestSleepAloneDeclines: a wake-up at or after the next pending event, or
// past the RunUntil deadline, is not alone; SleepAlone leaves it to the
// caller without touching the clock.
func TestSleepAloneDeclines(t *testing.T) {
	e := NewEngine()
	e.Schedule(40, func() {})
	var results []bool
	e.SpawnActor("a", func(a *Actor) {
		noop := func(any) { t.Error("declined step ran") }
		results = append(results, a.SleepAlone(40, noop, nil), a.SleepAlone(-1, func(any) {}, nil))
		if a.Now() != 0 {
			t.Errorf("clock moved to %v", a.Now())
		}
		a.Done()
	})
	e.RunUntil(20)
	e.SpawnActor("b", func(a *Actor) {
		results = append(results, a.SleepAlone(15, func(any) {}, nil)) // 35 is past the deadline
		a.Done()
	})
	e.RunUntil(30)
	if len(results) != 3 || results[0] || !results[1] || results[2] {
		t.Errorf("SleepAlone results = %v, want [false true false]", results)
	}
}
