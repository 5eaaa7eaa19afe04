package sim

// This file implements the run-to-completion actor runtime, the second of
// the engine's two process models (DESIGN.md §12):
//
//   - A Proc is a goroutine-based coroutine: straight-line Go code that
//     blocks in Sleep/Acquire/Get/Wait. A yielding Proc drives the dispatch
//     loop on its own goroutine (Proc.yield), so resuming itself is free,
//     but resuming another Proc costs a channel send and a goroutine
//     context switch (Engine.pass), and the loop's steps run on whichever
//     goroutine happens to hold it.
//   - An Actor is a callback state machine: blocking points are spelled as
//     continuations — Sleep(d, step, state), Resource.AcquireA, Queue.GetA,
//     Signal.WaitA — and every step fires *inline* in the engine's dispatch
//     loop. The common resume path does zero channel operations and zero
//     goroutine switches, and because a continuation is a plain
//     (func(any), state) pair riding the event arena, it allocates nothing.
//
// Both models interleave in one engine with identical event ordering: all
// wake-ups flow through the event queue as (time, seq)-ordered events
// whether the payload is a *Proc resume or a continuation, and synchronous
// fast paths (an uncontended AcquireA, a non-empty GetA, a fired WaitA)
// continue inline exactly where the Proc APIs return without yielding. A
// daemon loop migrated from Proc to Actor therefore replays byte-identical
// simulations — `make golden` is the oracle for that contract.
//
// Continuation-pooling rules: steps should be package-level func(any)
// functions receiving a frame (state struct) pointer, so no closure is
// allocated per step; frames that live per operation are recycled through a
// FramePool owned by a per-engine object (a Resource, Queue, Link, Manager),
// never by a global, since engines run concurrently in sweep worker pools.

import "fmt"

// Actor is a handle on a run-to-completion simulation task. Unlike a Proc
// it has no goroutine and never blocks: code running "as" an actor registers
// continuations with the engine or with waitable objects and returns. Steps
// always execute inline in the engine loop, so actor code may freely touch
// shared simulation state without locking, exactly like Proc code.
type Actor struct {
	eng    *Engine
	name   string
	daemon bool
	done   bool
	proc   *Proc        // set on a Proc's Await bridge actor
	start  func(*Actor) // pending SpawnActor entry point
	// blockedOn names what the actor is currently parked on ("resource",
	// `queue "gpu-ch0"`, ...) for the engine's deadlock report.
	blockedOn string
}

// Engine returns the engine this actor belongs to.
func (a *Actor) Engine() *Engine { return a.eng }

// Name returns the name given at spawn time.
func (a *Actor) Name() string { return a.name }

// Now returns the current simulated time.
func (a *Actor) Now() Time { return a.eng.now }

// SpawnActor registers a non-daemon actor and schedules start to run at the
// current simulated time — the actor counterpart of Spawn. The engine's Run
// does not return until the actor calls Done.
func (e *Engine) SpawnActor(name string, start func(a *Actor)) *Actor {
	a := e.newActor(name, false)
	a.start = start
	e.scheduleStep(e.now, actorStart, a)
	return a
}

// SpawnActorDaemon registers a daemon actor (a server loop expected to park
// forever, like SpawnDaemon) and schedules start at the current time.
// Daemons do not count toward deadlock detection when the queue drains.
func (e *Engine) SpawnActorDaemon(name string, start func(a *Actor)) *Actor {
	a := e.newActor(name, true)
	a.start = start
	e.scheduleStep(e.now, actorStart, a)
	return a
}

func (e *Engine) newActor(name string, daemon bool) *Actor {
	a := &Actor{eng: e, name: name, daemon: daemon}
	if !daemon {
		e.actors++
		e.liveActors = trackLive(e.liveActors, a, func(x *Actor) bool { return x.done })
	}
	return a
}

// actorStart runs a spawned actor's entry point from its start event.
func actorStart(x any) {
	a := x.(*Actor)
	start := a.start
	a.start = nil
	start(a)
}

// Done marks a non-daemon actor complete, releasing the engine's Run to
// return once the queue drains. Calling Done twice panics — like a Proc
// body returning twice, it would corrupt the engine's liveness accounting.
func (a *Actor) Done() {
	if a.done {
		panic(fmt.Sprintf("sim: Done called twice on actor %q", a.name))
	}
	a.done = true
	if !a.daemon {
		a.eng.actors--
	}
}

// Sleep schedules step(state) to run after d of simulated time — the actor
// counterpart of Proc.Sleep, with the same clamping: a non-positive duration
// still goes through the event queue, so already-scheduled same-time events
// run first. No allocation: the continuation rides the event arena directly.
func (a *Actor) Sleep(d Duration, step func(any), state any) {
	if d < 0 {
		d = 0
	}
	e := a.eng
	e.scheduleStep(e.now.Add(d), step, state)
}

// SleepAlone is the tail form of Sleep for a step that knows nothing else
// can observe the time until its wake-up: when now+d (clamped like Sleep)
// lies strictly before NextAt, it advances the clock to now+d, runs
// step(state) inline and reports true — exactly what popping that wake-up
// as the next event would do, without the queue. Otherwise it does nothing
// and reports false. Call it only as the last action of a step the engine
// fired: the step and everything under it up to the engine loop must
// return right after, or their remaining work would run at the later time.
func (a *Actor) SleepAlone(d Duration, step func(any), state any) bool {
	e := a.eng
	at := e.now.Add(max(d, 0))
	if at >= e.NextAt() {
		return false
	}
	e.now = at
	step(state)
	return true
}

// waiter is one parked task on a wait list (Resource, Queue, Signal):
// either a blocked Proc or a parked actor continuation.
type waiter struct {
	proc  *Proc
	actor *Actor
	fn    func(any)
	arg   any
}

// wakeWaiter resumes a parked waiter through the event queue: a Proc gets a
// direct resume event, an actor continuation a step event — both at the
// current time, occupying exactly one sequence number, so the two models
// wake in identical order.
func (e *Engine) wakeWaiter(w waiter) {
	if w.proc != nil {
		w.proc.wake()
		return
	}
	if w.actor != nil {
		w.actor.blockedOn = ""
	}
	e.scheduleStep(e.now, w.fn, w.arg)
}

// popWaiter removes and returns the first waiter of a non-empty wait list.
// A list that empties rewinds to the start of its backing array, so a
// one-deep park/wake cycle reuses it instead of allocating a new one.
func popWaiter(list *[]waiter) waiter {
	l := *list
	w := l[0]
	l[0] = waiter{}
	if len(l) == 1 {
		*list = l[:0]
	} else {
		*list = l[1:]
	}
	return w
}

// trackLive appends x to a live-task list, compacting finished entries in
// place (order-preserving, so deadlock reports stay deterministic) when the
// list is about to grow.
func trackLive[T any](list []*T, x *T, dead func(*T) bool) []*T {
	if len(list) >= 32 && len(list) == cap(list) {
		live := list[:0]
		for _, t := range list {
			if !dead(t) {
				live = append(live, t)
			}
		}
		list = live
	}
	return append(list, x)
}

// FramePool recycles continuation frames (the state structs actor step
// functions receive) so steady-state chains allocate nothing. Pools must be
// owned by a per-engine object — never a package global — because engines
// run concurrently in sweep worker pools. Put zeroes the frame, so Get
// returns frames whose every field the caller must set.
type FramePool[T any] struct{ free []*T }

// Get returns a zeroed frame, reusing a recycled one when available.
func (fp *FramePool[T]) Get() *T {
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free[n-1] = nil
		fp.free = fp.free[:n-1]
		return f
	}
	return new(T)
}

// Len returns the number of recycled frames waiting for reuse.
func (fp *FramePool[T]) Len() int { return len(fp.free) }

// Put recycles a frame the chain has finished with.
func (fp *FramePool[T]) Put(f *T) {
	var zero T
	*f = zero
	fp.free = append(fp.free, f)
}
