package sim

import "fmt"

// Queue is an unbounded FIFO of T with blocking Get, used as the command
// stream between producers (drivers, command processors) and consumers
// (engines). Put never blocks. Proc getters (Get) and actor getters (GetA)
// share one FIFO wait list.
//
// The type parameter removes the interface{} boxing the pre-generic queue
// imposed on every item: device-model call sites (gpu command channels)
// enqueue their command structs directly and Get returns them typed, with
// no per-item heap allocation and no type assertion on the hot path.
//
// Items live in a sliding window of one backing slice: Get advances a head
// index instead of re-slicing. The backing array is reused from the start
// whenever the queue drains, and a Put that finds it full while at least
// half of it is consumed prefix slides the live window back to the front
// instead of growing it, so a steady state at any constant depth — even
// one that never drains, like a throttled command channel — allocates
// nothing.
type Queue[T any] struct {
	eng       *Engine
	items     []T
	head      int
	getters   []waiter
	blockName string
	frames    FramePool[getFrame[T]]

	maxDepth int
	puts     uint64
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e, blockName: "queue"} }

// SetLabel names the queue in deadlock reports and returns it.
func (q *Queue[T]) SetLabel(label string) *Queue[T] {
	q.blockName = fmt.Sprintf("queue %q", label)
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// MaxDepth returns the high-water mark of the queue length.
func (q *Queue[T]) MaxDepth() int { return q.maxDepth }

// Puts returns the total number of items ever enqueued.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Put appends an item and wakes one blocked getter, if any.
func (q *Queue[T]) Put(item T) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		q.compact()
	}
	q.items = append(q.items, item)
	q.puts++
	if q.Len() > q.maxDepth {
		q.maxDepth = q.Len()
	}
	if len(q.getters) > 0 {
		q.eng.wakeWaiter(popWaiter(&q.getters))
	}
}

// compact slides the live window to the front of the backing array and
// zeroes the vacated tail. It moves at most as many items as were consumed
// since the window last started at the front, so Put stays amortized O(1).
func (q *Queue[T]) compact() {
	n := copy(q.items, q.items[q.head:])
	clear(q.items[n:])
	q.items = q.items[:n]
	q.head = 0
}

// PutFront inserts an item at the head of the queue, ahead of everything
// already queued, and wakes one blocked getter like Put. Schedulers use it
// to return a deferred or preempted item to the front so the original FIFO
// admission order is preserved.
func (q *Queue[T]) PutFront(item T) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = item
	} else {
		var zero T
		q.items = append(q.items, zero)
		copy(q.items[1:], q.items)
		q.items[0] = item
	}
	q.puts++
	if q.Len() > q.maxDepth {
		q.maxDepth = q.Len()
	}
	if len(q.getters) > 0 {
		q.eng.wakeWaiter(popWaiter(&q.getters))
	}
}

// take removes and returns the oldest item; the queue must be non-empty.
// The vacated slot is zeroed so the queue never pins consumed items, and
// the window resets to the front of the backing array on drain.
func (q *Queue[T]) take() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return item
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty. Concurrent getters are served FIFO.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters = append(q.getters, waiter{proc: p})
		p.blockedOn = q.blockName
		p.yield()
	}
	return q.take()
}

// TryGet removes and returns the oldest item without blocking; ok is false
// if the queue is empty.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

// getFrame carries one parked GetA; recycled through the queue's pool.
type getFrame[T any] struct {
	q     *Queue[T]
	a     *Actor
	step  func(any, T)
	state any
}

// GetA delivers the oldest item to step(state, item) for an actor chain:
// inline when the queue is non-empty (matching Get's synchronous path),
// otherwise parking FIFO behind earlier getters of either task model. Like
// Get's re-check loop, a woken getter that finds the queue drained again
// re-parks at the back. Parked frames are pooled, so a steady-state
// park/wake cycle allocates nothing.
func (q *Queue[T]) GetA(a *Actor, step func(state any, item T), state any) {
	if q.Len() > 0 {
		step(state, q.take())
		return
	}
	f := q.frames.Get()
	f.q, f.a, f.step, f.state = q, a, step, state
	a.blockedOn = q.blockName
	q.getters = append(q.getters, waiter{actor: a, fn: getWake[T], arg: f})
}

// getWake resumes a parked GetA: deliver the head item, or re-park if
// another getter drained the queue first.
func getWake[T any](x any) {
	f := x.(*getFrame[T])
	q := f.q
	if q.Len() == 0 {
		f.a.blockedOn = q.blockName
		q.getters = append(q.getters, waiter{actor: f.a, fn: getWake[T], arg: f})
		return
	}
	step, state := f.step, f.state
	q.frames.Put(f)
	step(state, q.take())
}
