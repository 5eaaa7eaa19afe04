package sim

import "fmt"

// Proc is a handle on a simulation process. Process bodies receive their
// Proc and use it for all time-consuming operations. A Proc must only be
// used from its own goroutine.
type Proc struct {
	eng    *Engine
	resume chan struct{}
	body   func(p *Proc) // set until the goroutine starts on the first resume
	name   string
	dead   bool
	daemon bool
	// nested is set while finishAwait has resumed the process from inside
	// a step: its next yield hands control back there instead of driving.
	nested bool

	// blockedOn names what the process is parked on, for deadlock reports.
	blockedOn string

	// Await bridge state: the cached actor identity continuation chains run
	// under, and where the current chain stands (see Await).
	bridge *Actor
	await  int8
}

// Await bridge states.
const (
	awaitIdle     int8 = iota // no chain in flight
	awaitRunning              // start is executing on the caller's stack
	awaitDoneSync             // chain completed without suspending
	awaitBlocked              // process yielded; completion will hand off
)

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn starts fn as a new process at the current simulated time. The
// process begins executing when the engine dispatches its start event, so a
// Spawn from inside another process does not preempt the caller.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a server process that is expected to block forever
// (device engine loops draining command queues). Daemons do not count
// toward deadlock detection when the event queue drains.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{eng: e, resume: make(chan struct{}), body: fn, name: name, daemon: daemon}
	if !daemon {
		e.procs++
		e.liveProcs = trackLive(e.liveProcs, p, func(x *Proc) bool { return x.dead })
	}
	e.scheduleProc(e.now, p)
	return p
}

// run is the process goroutine: the body, then — since a finished process
// still holds the baton — driving the loop on until control passes to
// another goroutine. A panic on this goroutine, from the body or from an
// event fired while it drove, is recovered and forwarded to the goroutine
// that takes control back, which panics again with the same value
// (Engine.rethrow).
func (p *Proc) run(body func(p *Proc)) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			e.fault, e.faulted = r, true
			if p.nested {
				e.back <- struct{}{}
			} else {
				e.caller <- struct{}{}
			}
		}
	}()
	body(p)
	p.dead = true
	if !p.daemon {
		e.procs--
	}
	if p.nested {
		p.nested = false
		e.back <- struct{}{}
		return
	}
	e.release(e.drive())
}

// release gives up the loop after drive stopped at q: the baton passes to
// q, or, when the loop ran dry (q nil), back to the Run/RunUntil caller.
func (e *Engine) release(q *Proc) {
	if q != nil {
		e.pass(q)
	} else {
		e.caller <- struct{}{}
	}
}

// yield suspends the process until an event resumes it. Normally the
// process drives the loop itself: if the first process resume popped is its
// own it returns without a goroutine switch, otherwise it releases the loop
// and parks. Two cases hand control back without driving: a process resumed
// by finishAwait returns to that step, and an Await yield returns the loop
// to the Run caller, since the completing step must resume the process
// synchronously and a process cannot be resumed on its own stack.
func (p *Proc) yield() {
	e := p.eng
	e.blocked++
	switch {
	case p.nested:
		p.nested = false
		e.back <- struct{}{}
		<-p.resume
	case p.await == awaitBlocked:
		e.caller <- struct{}{}
		<-p.resume
	default:
		if q := e.drive(); q != p {
			e.release(q)
			<-p.resume
		}
	}
	e.blocked--
}

// wake schedules an immediate event that resumes p. All resumptions flow
// through the event queue so that ordering stays deterministic, but the
// event carries the *Proc directly — no closure is allocated. Waking a
// finished process panics: its goroutine is gone, so the resume could
// never be delivered.
func (p *Proc) wake() {
	if p.dead {
		panic(fmt.Sprintf("sim: wake of finished process %q", p.name))
	}
	p.blockedOn = ""
	p.eng.scheduleProc(p.eng.now, p)
}

// Sleep suspends the process for d of simulated time; a negative d counts
// as zero. Already-scheduled events at or before the wake-up instant run
// first, so Sleep(0) lets pending same-time events go ahead.
//
// When no pending event falls at or before the wake-up instant (and the
// instant lies within the current Run or RunUntil window), the wake-up would
// be the very next event popped, so Sleep advances the clock inline instead
// of entering the dispatch loop. It still counts one event scheduled and
// fired, exactly as the yielding path does; only Handoffs and the queue's
// AllocsAvoided and HeapMaxDepth can differ.
func (p *Proc) Sleep(d Duration) {
	e := p.eng
	at := e.now.Add(max(d, 0))
	if next, ok := e.queue.MinAt(); at <= e.horizon && (!ok || Time(next) > at) {
		e.sched++
		e.fired++
		e.now = at
		return
	}
	e.scheduleProc(at, p)
	p.yield()
}

// Await runs start, a continuation-passing operation, and blocks the
// process until the operation's chain calls step(state) — the bridge
// between the two task models. The chain runs under the process's cached
// bridge actor identity a; when it completes inline (no suspension), Await
// returns without yielding, matching a synchronous fast path; when it
// suspends, the process yields once, handing the loop back to the Run
// caller, and the chain's final step resumes it with a single handoff,
// inline in whatever event completed the chain. A blocking operation built
// from a k-step chain therefore costs the caller at most one context switch
// instead of k.
//
// Await panics if nested — a chain must never start another chain through
// the same process, since one bridge slot tracks completion.
func (p *Proc) Await(start func(a *Actor, step func(any), state any)) {
	if p.await != awaitIdle {
		panic(fmt.Sprintf("sim: nested Await on process %q", p.name))
	}
	if p.bridge == nil {
		p.bridge = &Actor{eng: p.eng, name: p.name, daemon: true, proc: p}
	}
	p.await = awaitRunning
	start(p.bridge, finishAwait, p)
	if p.await == awaitDoneSync {
		p.await = awaitIdle
		return
	}
	p.await = awaitBlocked
	p.yield()
	p.await = awaitIdle
}

// finishAwait is the completion step Await hands to the chain: a
// synchronous completion just marks the chain done, while a completion
// arriving from a later event resumes the blocked process and waits, on
// whichever goroutine is driving the loop, until the process yields back,
// so the rest of the completing step runs after it as before. A panic the
// process raises meanwhile panics again here. finishAwait also panics if
// the chain delivers its completion twice — a corrupted continuation chain,
// the CPS analogue of a Proc body returning twice.
func finishAwait(x any) {
	p := x.(*Proc)
	switch p.await {
	case awaitRunning:
		p.await = awaitDoneSync
	case awaitBlocked:
		e := p.eng
		p.nested = true
		e.pass(p)
		<-e.back
		e.rethrow()
	default:
		panic(fmt.Sprintf("sim: Await completion delivered twice to process %q", p.name))
	}
}

// blockReason names what the process is waiting on for deadlock reports,
// looking through an in-flight Await to what its chain is parked on.
func (p *Proc) blockReason() string {
	if p.await == awaitBlocked && p.bridge != nil && p.bridge.blockedOn != "" {
		return p.bridge.blockedOn
	}
	if p.blockedOn != "" {
		return p.blockedOn
	}
	return "unknown"
}

// blockReason is the actor counterpart of Proc.blockReason.
func (a *Actor) blockReason() string {
	if a.blockedOn != "" {
		return a.blockedOn
	}
	return "unknown"
}

// Signal is a one-shot broadcast completion event: tasks wait on it and all
// of them resume once Fire is called. Waiting on an already-fired signal
// returns (or continues) immediately. The zero value is not usable; use
// NewSignal.
type Signal struct {
	eng       *Engine
	fired     bool
	at        Time
	waiters   []waiter
	blockName string
}

// NewSignal returns a fresh, unfired signal.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e, blockName: "signal"} }

// SetLabel names the signal in deadlock reports and returns it.
func (s *Signal) SetLabel(label string) *Signal {
	s.blockName = fmt.Sprintf("signal %q", label)
	return s
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// At returns the time the signal fired; valid only after Fired.
func (s *Signal) At() Time { return s.at }

// Fire marks the signal complete and resumes all waiters. Firing twice
// panics: completion events in the model are strictly one-shot.
//
// All waiters resume at the same timestamp in Wait order: each wake-up is
// scheduled in list order, so their events occupy consecutive sequence
// numbers with nothing able to interleave, and Proc and actor waiters
// resume in exactly the order they parked.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	s.at = s.eng.now
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.eng.wakeWaiter(w)
	}
	if ws != nil {
		clear(ws)
		s.eng.spareWaits = append(s.eng.spareWaits, ws[:0])
	}
}

// park appends w to the signal's wait list, taking an empty list from the
// engine's spares for the first waiter.
func (s *Signal) park(w waiter) {
	if s.waiters == nil {
		if n := len(s.eng.spareWaits); n > 0 {
			s.waiters = s.eng.spareWaits[n-1]
			s.eng.spareWaits[n-1] = nil
			s.eng.spareWaits = s.eng.spareWaits[:n-1]
		}
	}
	s.waiters = append(s.waiters, w)
}

// Wait blocks p until the signal fires. Returns immediately if it already has.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.park(waiter{proc: p})
	p.blockedOn = s.blockName
	p.yield()
}

// WaitA parks step(state) until the signal fires, running it inline right
// away if it already has — the actor counterpart of Wait.
func (s *Signal) WaitA(a *Actor, step func(any), state any) {
	if s.fired {
		step(state)
		return
	}
	a.blockedOn = s.blockName
	s.park(waiter{actor: a, fn: step, arg: state})
}

// WaitAll blocks p until every signal in sigs has fired.
func WaitAll(p *Proc, sigs ...*Signal) {
	for _, s := range sigs {
		s.Wait(p)
	}
}
