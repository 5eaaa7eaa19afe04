// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating tasks over a virtual clock.
// Exactly one goroutine — either the engine loop or a single process — runs
// at any moment; control is handed back and forth explicitly, so simulations
// are fully deterministic and task code needs no locking.
//
// Two task models share one engine (see DESIGN.md §12):
//
//   - Processes (Proc) are ordinary Go functions that receive a *Proc handle
//     and use it to sleep, wait on signals, acquire resources, and exchange
//     items through queues. Host programs with complex control flow (CUDA
//     applications, workload scripts) are written as processes. A resume
//     costs a goroutine handoff, except that an uncontended Sleep — nothing
//     else pending at or before its wake-up — advances the clock inline.
//   - Actors are run-to-completion state machines whose continuation steps
//     fire inline in the engine loop — no goroutine, no channel operations
//     per resume. Hot daemon loops (device engines, schedulers) use them.
//
// Scheduling internals live in the eventq sub-package: a typed 4-ary
// min-heap over an index-addressed arena with a free-list, so the steady
// state neither boxes nor allocates per event. Process resumes are scheduled
// as direct *Proc payloads and actor steps as (func(any), state) pairs — no
// closure per wake in either model.
package sim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hccsim/internal/sim/eventq"
)

// Time is an instant on the simulated clock, in nanoseconds since the start
// of the simulation.
type Time int64

// Duration is re-exported from the time package: simulated durations are
// ordinary time.Durations, so literals like 5*time.Microsecond read naturally.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration offset from simulation start.
func (t Time) String() string { return Duration(t).String() }

// item is one scheduled unit of work. Exactly one of fn, proc, cfn is set:
//
//	fn   — a generic callback;
//	proc — resume this single blocked process (Sleep, Resource hand-over,
//	       Queue wake — no closure allocated);
//	cfn  — run an actor continuation step cfn(carg) inline in the engine
//	       loop (the run-to-completion resume path: no channel operations,
//	       no goroutine switch, no allocation).
type item struct {
	fn   func()
	proc *Proc
	cfn  func(any)
	carg any
}

// Stats is a snapshot of the engine's hot-path counters.
type Stats struct {
	// Fired counts dispatched events.
	Fired uint64
	// Scheduled counts enqueued events.
	Scheduled uint64
	// Handoffs counts engine->process control transfers, each one a
	// channel round trip plus two goroutine switches — the cost of
	// goroutine-based coroutines, and exactly what the actor runtime's
	// inline steps avoid. An uncontended Proc.Sleep advances the clock
	// inline and counts toward Fired and Scheduled but not Handoffs.
	Handoffs uint64
	// ActorSteps counts actor continuation steps fired inline in the
	// engine loop — resumes that cost no channel operation and no
	// goroutine switch.
	ActorSteps uint64
	// AllocsAvoided counts event-arena slots served from the free-list —
	// allocations the old pointer-heap design would have made.
	AllocsAvoided uint64
	// HeapMaxDepth is the event queue's high-water mark.
	HeapMaxDepth int
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now      Time
	queue    eventq.Queue[item]
	token    chan struct{} // control hand-back from the running process
	procs    int           // non-daemon processes spawned and not yet finished
	actors   int           // non-daemon actors spawned and not yet Done
	blocked  int           // processes currently waiting on something
	running  bool
	horizon  Time // latest instant the current Run/RunUntil may reach
	fired    uint64
	sched    uint64
	handoffs uint64
	steps    uint64
	flushed  Stats // counters already published to the global aggregates

	// Live non-daemon tasks, in spawn order, for the deadlock report.
	liveProcs  []*Proc
	liveActors []*Actor
}

// NewEngine returns a fresh engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{token: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Blocked reports how many processes are currently suspended waiting on a
// signal, resource, or queue. With an empty event queue, a non-zero Blocked
// count on non-daemon processes is a deadlock.
func (e *Engine) Blocked() int { return e.blocked }

// Stats returns a snapshot of the engine's scheduling counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Fired:         e.fired,
		Scheduled:     e.sched,
		Handoffs:      e.handoffs,
		ActorSteps:    e.steps,
		AllocsAvoided: e.queue.Reused(),
		HeapMaxDepth:  e.queue.MaxDepth(),
	}
}

// Schedule registers fn to run at time e.Now()+d. It may be called from the
// engine loop, from a process, or before Run. Scheduling in the past panics,
// since it would break causality.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.push(e.now.Add(d), item{fn: fn})
}

// scheduleProc enqueues a direct resume of p at an absolute time — no
// closure, just the pointer riding the event arena.
func (e *Engine) scheduleProc(at Time, p *Proc) {
	e.push(at, item{proc: p})
}

// scheduleStep enqueues an actor continuation at an absolute time. Like a
// proc resume it allocates nothing: the (fn, arg) pair rides the arena.
func (e *Engine) scheduleStep(at Time, fn func(any), arg any) {
	e.push(at, item{cfn: fn, carg: arg})
}

// push enqueues it at an absolute time. Scheduling before now panics — the
// same causality rule Schedule documents.
func (e *Engine) push(at Time, it item) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.sched++
	e.queue.Push(int64(at), it)
}

// dispatch runs one popped item at the current clock.
func (e *Engine) dispatch(it item) {
	e.fired++
	switch {
	case it.proc != nil:
		e.handoff(it.proc)
	case it.cfn != nil:
		e.steps++
		it.cfn(it.carg)
	default:
		it.fn()
	}
}

// Run dispatches events until the queue is empty, then returns the final
// simulated time. Tasks that are still blocked when the queue drains are
// deadlocked (they can never be resumed); Run panics in that case to surface
// the modelling bug rather than silently dropping work.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.horizon = math.MaxInt64
	defer func() {
		e.running = false
		e.flushGlobal()
	}()
	for e.queue.Len() > 0 {
		at, it := e.queue.Pop()
		e.now = Time(at)
		e.dispatch(it)
	}
	e.checkDeadlock()
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline and then stops,
// advancing the clock to the deadline. Blocked tasks whose wake-ups lie
// beyond the deadline are left blocked; but if the queue drains completely
// while non-daemon tasks are still blocked, they can never be resumed, and
// RunUntil panics with the same deadlock report as Run.
func (e *Engine) RunUntil(deadline Time) Time {
	e.horizon = deadline
	defer e.flushGlobal()
	for {
		at, ok := e.queue.MinAt()
		if !ok || Time(at) > deadline {
			break
		}
		_, it := e.queue.Pop()
		e.now = Time(at)
		e.dispatch(it)
	}
	if e.queue.Len() == 0 {
		e.checkDeadlock()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// checkDeadlock panics if non-daemon tasks are blocked with no pending
// events — the modelling bug both Run and RunUntil promise to surface. The
// report names each waiting process and actor and what it blocks on.
func (e *Engine) checkDeadlock() {
	n := e.procs + e.actors
	if n == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock: %d task(s) blocked with no pending events:", n)
	sep := " "
	for _, p := range e.liveProcs {
		if p.dead {
			continue
		}
		fmt.Fprintf(&b, "%sproc %q waiting on %s", sep, p.name, p.blockReason())
		sep = "; "
	}
	for _, a := range e.liveActors {
		if a.done {
			continue
		}
		fmt.Fprintf(&b, "%sactor %q waiting on %s", sep, a.name, a.blockReason())
		sep = "; "
	}
	panic(b.String())
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }
