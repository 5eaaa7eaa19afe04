// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating tasks over a virtual clock.
// Exactly one goroutine — the Run caller or a single process — runs at any
// moment; control is handed on explicitly, so simulations are fully
// deterministic and task code needs no locking.
//
// Two task models share one engine (see DESIGN.md §12):
//
//   - Processes (Proc) are ordinary Go functions that receive a *Proc handle
//     and use it to sleep, wait on signals, acquire resources, and exchange
//     items through queues. Host programs with complex control flow (CUDA
//     applications, workload scripts) are written as processes. The dispatch
//     loop is a baton: a yielding process runs it on its own goroutine, so
//     resuming the process that just yielded costs no goroutine switch, and
//     resuming another costs one channel send. An uncontended Sleep —
//     nothing else pending at or before its wake-up — advances the clock
//     inline without entering the loop at all.
//   - Actors are run-to-completion state machines whose continuation steps
//     fire inline in the dispatch loop — no goroutine, no channel operations
//     per resume. Hot daemon loops (device engines, schedulers) use them.
//
// Scheduling internals live in the eventq sub-package: a typed 4-ary
// min-heap over an index-addressed arena with a free-list, behind a
// one-entry hold slot for the next event, so the steady state neither
// boxes nor allocates per event. An actor step rides a four-word event as
// a (func(any), state) pair and a process resume as the bare *Proc in the
// state word — no closure per wake in either model.
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

// item is one scheduled unit of work, four words wide:
//
//	cfn set — run an actor continuation step cfn(carg) inline in the engine
//	          loop (the run-to-completion resume path: no channel
//	          operations, no goroutine switch, no allocation);
//	fn set  — a generic callback;
//	neither — resume the single blocked process held in carg as a *Proc
//	          (Sleep, Resource hand-over, Queue wake — no closure
//	          allocated).
type item struct {
	fn   func()
	cfn  func(any)
	carg any
}

// Stats is a snapshot of the engine's hot-path counters.
type Stats struct {
	// Fired counts dispatched events.
	Fired uint64
	// Scheduled counts enqueued events.
	Scheduled uint64
	// Handoffs counts real goroutine switches into a process: a process's
	// first start, the baton passed to a process whose resume was popped
	// on another goroutine, and an Await completion resuming its process.
	// A process resumed by its own pass through the dispatch loop, and an
	// uncontended Proc.Sleep that advances the clock inline, count toward
	// Fired (and Scheduled) but not Handoffs.
	Handoffs uint64
	// ActorSteps counts actor continuation steps fired inline in the
	// engine loop — resumes that cost no channel operation and no
	// goroutine switch.
	ActorSteps uint64
	// AllocsAvoided counts event pushes that did not grow the event arena
	// (served by the queue's hold slot or its free-list) — allocations the
	// old pointer-heap design would have made.
	AllocsAvoided uint64
	// HeapMaxDepth is the event queue's high-water mark.
	HeapMaxDepth int
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now      Time
	queue    eventq.Queue[item]
	caller   chan struct{} // wakes the Run/RunUntil caller to take the loop back
	back     chan struct{} // hand-back from a process resumed by finishAwait
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

	// A panic on a process goroutine, forwarded to the goroutine that
	// takes control back (see rethrow).
	fault   any
	faulted bool

	// Live non-daemon tasks, in spawn order, for the deadlock report.
	liveProcs  []*Proc
	liveActors []*Actor

	// Emptied wait lists of fired signals, reused by the next Signal that
	// gets a waiter. Per engine, since engines run concurrently.
	spareWaits [][]waiter
}

// NewEngine returns a fresh engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{caller: make(chan struct{}), back: make(chan struct{})}
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
	e.push(at, item{carg: p})
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

// drive fires events on whichever goroutine holds the baton — the Run
// caller or a yielding process — until it pops a process resume, which it
// returns for the caller to act on. Callbacks and actor steps fire inline.
// drive returns nil when the queue is empty or its next event lies past the
// horizon of the current Run or RunUntil.
func (e *Engine) drive() *Proc {
	for {
		at, ok := e.queue.MinAt()
		if !ok || Time(at) > e.horizon {
			return nil
		}
		_, it := e.queue.Pop()
		e.now = Time(at)
		e.fired++
		switch {
		case it.cfn != nil:
			e.steps++
			it.cfn(it.carg)
		case it.fn != nil:
			it.fn()
		default:
			return it.carg.(*Proc)
		}
	}
}

// runLoop runs the dispatch loop from the Run/RunUntil caller's goroutine.
// Each popped process resume passes the baton to that process; the caller
// then parks until the loop comes back to it, either because it ran dry on
// some process goroutine or because an Await handed it back, and drives on.
// A panic forwarded from a process goroutine panics again here, on the
// caller's goroutine, with the same value.
func (e *Engine) runLoop() {
	for {
		p := e.drive()
		if p == nil {
			return
		}
		e.pass(p)
		<-e.caller
		e.rethrow()
	}
}

// pass hands control to p: the start of its goroutine on its first resume,
// otherwise one send to its parked goroutine. The caller must not touch
// engine state until control comes back to it.
func (e *Engine) pass(p *Proc) {
	e.handoffs++
	if body := p.body; body != nil {
		p.body = nil
		go p.run(body)
		return
	}
	p.resume <- struct{}{}
}

// rethrow panics with the value a process goroutine forwarded, if any: a
// panic raised by an event it fired while holding the loop, or by its own
// body, surfaces on the goroutine that takes control back.
func (e *Engine) rethrow() {
	if e.faulted {
		r := e.fault
		e.fault, e.faulted = nil, false
		panic(r)
	}
}

// Run dispatches events until the queue is empty, then returns the final
// simulated time. Tasks that are still blocked when the queue drains are
// deadlocked (they can never be resumed); Run panics in that case to surface
// the modelling bug rather than silently dropping work. A panic raised by an
// event or a process body panics out of Run with the same value, whichever
// goroutine was running the loop when it happened.
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
	e.runLoop()
	e.checkDeadlock()
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline and then stops,
// advancing the clock to the deadline. Blocked tasks whose wake-ups lie
// beyond the deadline are left blocked; but if the queue drains completely
// while non-daemon tasks are still blocked, they can never be resumed, and
// RunUntil panics with the same deadlock report as Run. Panics from events
// and process bodies surface from RunUntil as they do from Run.
func (e *Engine) RunUntil(deadline Time) Time {
	e.horizon = deadline
	defer e.flushGlobal()
	e.runLoop()
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

// NextAt returns the earliest instant at which anything other than the
// step now running can happen: the time of the earliest pending event, or,
// when none is pending at or before the horizon of the current Run or
// RunUntil, the instant just past that horizon (math.MaxInt64 under Run).
// A chain of events that ends strictly before NextAt, started with no
// foreign task parked on what it touches, runs alone: nothing else fires
// in between, so nothing else can observe its intermediate states. Outside
// Run and RunUntil the horizon is that of the last run.
func (e *Engine) NextAt() Time {
	if at, ok := e.queue.MinAt(); ok && Time(at) <= e.horizon {
		return Time(at)
	}
	if e.horizon == math.MaxInt64 {
		return e.horizon
	}
	return e.horizon + 1
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }
