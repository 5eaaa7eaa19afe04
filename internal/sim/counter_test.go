package sim

import (
	"fmt"
	"testing"
	"time"
)

// Waiters whose target one Add reaches resume at that instant in the order
// they parked; a waiter with a later target stays parked.
func TestCounterWakesReachedWaitersInParkOrder(t *testing.T) {
	e := NewEngine()
	c := NewCounter()
	var got []string
	for i, target := range []uint64{2, 1, 2, 3, 2} {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			c.WaitFor(p, target)
			got = append(got, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	e.Spawn("adder", func(p *Proc) {
		for range 3 {
			p.Sleep(100 * time.Nanosecond)
			c.Add()
		}
	})
	e.Run()
	want := "[w1@100ns w0@200ns w2@200ns w4@200ns w3@300ns]"
	if fmt.Sprint(got) != want {
		t.Fatalf("resumed %v, want %s", got, want)
	}
	if c.N() != 3 {
		t.Fatalf("count %d, want 3", c.N())
	}
}

// WaitFor on a count already reached returns without yielding and without
// scheduling an event.
func TestCounterWaitForReachedReturnsInline(t *testing.T) {
	e := NewEngine()
	c := NewCounter()
	var before, after Stats
	e.Spawn("p", func(p *Proc) {
		c.Add()
		c.Add()
		before = e.Stats()
		c.WaitFor(p, 0)
		c.WaitFor(p, 1)
		c.WaitFor(p, 2)
		after = e.Stats()
	})
	e.Run()
	if after != before {
		t.Fatalf("WaitFor on a reached count changed the engine: %+v, then %+v", before, after)
	}
}

// ringRun drives a host that keeps at most two commands in flight against
// a device that completes them in order, plus a process waiting for the
// last one, and returns the engine's counters and the instants at which
// the host submitted and the last waiter resumed.
// With signals, each command has its own and the host waits on the oldest
// one not seen fired; with a counter, the host waits for the count to pass
// the completions it has seen.
func ringRun(counter bool) (Stats, []Time) {
	const n = 12
	e := NewEngine()
	c := NewCounter()
	sigs := make([]*Signal, n)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	var at []Time
	submitted := 0
	e.Spawn("device", func(p *Proc) {
		for i := range n {
			p.Sleep(Duration(5 + 3*(i%4)))
			if counter {
				c.Add()
			} else {
				sigs[i].Fire()
			}
		}
	})
	e.Spawn("host", func(p *Proc) {
		head := 0 // with signals, the oldest command not seen complete
		for range n {
			for {
				if counter {
					if submitted-int(c.N()) < 2 {
						break
					}
					c.WaitFor(p, c.N()+1)
					continue
				}
				for head < submitted && sigs[head].Fired() {
					head++
				}
				if submitted-head < 2 {
					break
				}
				sigs[head].Wait(p)
			}
			at = append(at, p.Now())
			p.Sleep(4)
			submitted++
		}
	})
	e.Spawn("syncer", func(p *Proc) {
		if counter {
			c.WaitFor(p, n)
		} else {
			sigs[n-1].Wait(p)
		}
		at = append(at, p.Now())
	})
	e.Run()
	return e.Stats(), at
}

// A counter in place of one signal per completion fires the same events
// and resumes its waiters at the same instants, in a run where the host
// blocks.
func TestCounterMatchesSignalReference(t *testing.T) {
	sigStats, sigAt := ringRun(false)
	cntStats, cntAt := ringRun(true)
	if cntStats != sigStats {
		t.Errorf("counter run %+v, signal run %+v", cntStats, sigStats)
	}
	if fmt.Sprint(cntAt) != fmt.Sprint(sigAt) {
		t.Errorf("counter run resumed at %v, signal run at %v", cntAt, sigAt)
	}
	if sigStats.Handoffs == 0 || sigAt[len(sigAt)-2] <= Time(4*(len(sigAt)-2)) {
		t.Fatalf("the host never blocked: submitted at %v", sigAt)
	}
}

// A process stuck in WaitFor is named, with the counter's label, in the
// deadlock report.
func TestCounterDeadlockNamesLabel(t *testing.T) {
	e := NewEngine()
	c := NewCounter().SetLabel("gpu-ch0")
	e.Spawn("stuck", func(p *Proc) { c.WaitFor(p, 1) })
	const want = `sim: deadlock: 1 task(s) blocked with no pending events: proc "stuck" waiting on counter "gpu-ch0"`
	if r := recoverFrom(func() { e.Run() }); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
}
