package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for baton passing: the dispatch loop runs on whichever goroutine
// holds it, the Run caller or a yielding process, and everything the loop
// reports must still surface on the Run caller's goroutine.

// faultValue is a panic value whose identity the tests can check.
type faultValue struct{ msg string }

// recoverFrom runs f and returns what it panicked with, or nil.
func recoverFrom(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// An event that panics while a process goroutine holds the loop panics out
// of Run and out of RunUntil with the same value.
func TestEventPanicOnProcGoroutineSurfaces(t *testing.T) {
	for _, entry := range []string{"Run", "RunUntil"} {
		e := NewEngine()
		boom := &faultValue{"boom"}
		e.Spawn("driver", func(p *Proc) {
			e.Schedule(time.Nanosecond, func() { panic(boom) })
			// The event at the wake-up instant forces a yield, so this
			// process fires it on its own goroutine.
			p.Sleep(time.Nanosecond)
			t.Errorf("%s: driver resumed past the panicking event", entry)
		})
		r := recoverFrom(func() {
			if entry == "Run" {
				e.Run()
			} else {
				e.RunUntil(100)
			}
		})
		if r != boom {
			t.Fatalf("%s panicked with %v, want %v", entry, r, boom)
		}
		if h := e.Stats().Handoffs; h != 1 {
			t.Fatalf("%s: Handoffs = %d, want 1: the event should fire on the driver", entry, h)
		}
	}
}

// A panic in a process resumed by an Await completion crosses two
// goroutines — back to the process whose step completed the Await, then to
// the Run caller — and keeps its value.
func TestNestedResumePanicSurfaces(t *testing.T) {
	e := NewEngine()
	boom := &faultValue{"nested"}
	e.Spawn("awaiter", func(p *Proc) {
		p.Await(func(a *Actor, step func(any), state any) {
			a.Sleep(10*time.Nanosecond, step, state)
		})
		panic(boom)
	})
	e.Spawn("driver", func(p *Proc) { p.Sleep(10 * time.Nanosecond) })
	if r := recoverFrom(func() { e.Run() }); r != boom {
		t.Fatalf("Run panicked with %v, want %v", r, boom)
	}
}

// When the last event fires on a finished process's goroutine and the queue
// drains with a task still blocked, the deadlock report comes from Run.
func TestDeadlockReportAfterLoopEndsOnProc(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e).SetLabel("never")
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	e.Spawn("last", func(p *Proc) {
		e.Schedule(time.Nanosecond, func() {})
		p.Sleep(time.Nanosecond)
	})
	const want = `sim: deadlock: 1 task(s) blocked with no pending events: proc "stuck" waiting on signal "never"`
	if r := recoverFrom(func() { e.Run() }); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
}

// Two processes sleeping in lockstep pass the loop between their goroutines,
// so most RunUntil windows end on a process goroutine. Replaying the run in
// windows must resume each time and match one uninterrupted Run.
func TestRunUntilWindowsResumeLoopOnProc(t *testing.T) {
	run := func(window Time) (string, Stats) {
		e := NewEngine()
		var log []string
		for i, name := range []string{"a", "b"} {
			d := Duration(3+2*i) * time.Nanosecond
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 6; j++ {
					e.Schedule(d, func() { log = append(log, fmt.Sprintf("%s-event@%v", name, e.Now())) })
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		if window == 0 {
			e.Run()
		} else {
			for now := Time(0); e.Pending() > 0; {
				now += window
				if got := e.RunUntil(now); got != now {
					t.Fatalf("RunUntil(%v) = %v", now, got)
				}
			}
		}
		return strings.Join(log, " "), e.Stats()
	}
	want, wantSt := run(0)
	for _, w := range []Time{1, 2, 4, 7} {
		got, st := run(w)
		if got != want {
			t.Fatalf("window %v:\n got %s\nwant %s", w, got, want)
		}
		if st.Fired != wantSt.Fired || st.Scheduled != wantSt.Scheduled {
			t.Fatalf("window %v: fired/scheduled %d/%d, want %d/%d", w, st.Fired, st.Scheduled, wantSt.Fired, wantSt.Scheduled)
		}
	}
}

// An Await completion fired while a different process drives the loop
// resumes the awaiting process inside that step, before the driver goes
// on, exactly as it would from the Run caller.
func TestAwaitCompletionWhileOtherProcDrives(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, e.Now())) }
	e.Spawn("awaiter", func(p *Proc) {
		p.Await(func(a *Actor, step func(any), state any) {
			a.Sleep(10*time.Nanosecond, func(x any) {
				note("chain-end")
				step(x)
				note("step-after-resume")
			}, state)
		})
		note("awaiter-resumed")
		p.Sleep(5 * time.Nanosecond)
		note("awaiter-done")
	})
	e.Spawn("driver", func(p *Proc) {
		// Its wake-up at 10ns queues behind the chain's step, so this
		// process is driving when the step fires.
		p.Sleep(10 * time.Nanosecond)
		note("driver")
	})
	end := e.Run()
	want := "chain-end@10ns awaiter-resumed@10ns step-after-resume@10ns driver@10ns awaiter-done@15ns"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
	if end != 15 {
		t.Fatalf("end = %v, want 15ns", end)
	}
	// Two starts, the Await completion's resume, and the driver passing
	// the loop to the awaiter's final wake-up after it finished.
	if h := e.Stats().Handoffs; h != 4 {
		t.Fatalf("Handoffs = %d, want 4", h)
	}
}
