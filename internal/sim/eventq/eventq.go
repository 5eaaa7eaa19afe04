// Package eventq provides the simulation engine's scheduling core: a typed
// 4-ary min-heap ordered by (time, sequence) over an index-addressed payload
// arena with a free-list.
//
// The design removes the two per-event costs of the previous
// container/heap-based queue:
//
//   - no interface{} boxing: the heap and arena are generic, so payloads are
//     stored directly and comparisons are inlined field compares, not
//     dynamic Less/Swap calls through an interface table;
//   - no per-event allocation in steady state: popped arena slots go on a
//     free-list and are reused by later pushes, so a simulation that
//     schedules and fires events at the same rate stops growing the heap
//     after warm-up.
//
// A one-entry hold slot sits ahead of the heap. A push that sorts strictly
// before everything queued waits there and never touches the heap or the
// arena; an earlier push evicts it into the heap. A discrete-event engine
// mostly schedules its own next event, so most pushes and pops are served
// by the slot and the heap only sees events that wait behind others.
//
// Heap entries carry the (time, seq) ordering key inline next to the arena
// index, so sift operations move 24-byte entries and never touch payloads.
// A 4-ary layout halves the tree depth of a binary heap; sift-down scans up
// to four children per level, which trades a few extra compares (cheap,
// branch-predictable) for half the cache-missing level hops.
package eventq

// entry is one heap slot: the ordering key plus the arena index of the
// payload. Keeping the key inline means ordering never dereferences the
// arena.
type entry struct {
	at  int64
	seq uint64
	idx int32
}

// before reports the strict heap order: earlier time first, then lower
// sequence number. Sequence numbers are unique, so the order is total and
// deterministic.
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Queue is a deterministic min-priority queue of payloads keyed by an int64
// timestamp. Entries with equal timestamps pop in push order. The zero
// value is ready to use.
type Queue[P any] struct {
	heap  []entry
	arena []P
	free  []int32 // arena slots available for reuse (LIFO)
	seq   uint64

	// hold/holdP is the held entry when held is set; it sorts strictly
	// before every heap entry. Its idx is unused until eviction.
	hold  entry
	holdP P
	held  bool

	maxDepth int
	reused   uint64
}

// Len returns the number of queued entries.
func (q *Queue[P]) Len() int {
	if q.held {
		return len(q.heap) + 1
	}
	return len(q.heap)
}

// MaxDepth returns the high-water mark of the queue length.
func (q *Queue[P]) MaxDepth() int { return q.maxDepth }

// Reused returns how many pushes did not grow the arena: those served by
// the hold slot or by the free-list. Each one is an allocation the old
// pointer-heap design would have made. A held entry evicted into the heap
// later is not counted again.
func (q *Queue[P]) Reused() uint64 { return q.reused }

// Push enqueues payload at time at. Order among equal timestamps is the
// order of Push calls.
func (q *Queue[P]) Push(at int64, payload P) {
	q.seq++
	e := entry{at: at, seq: q.seq}
	// Sequence numbers only grow, so the new entry sorts before an older
	// one exactly when its time is strictly earlier.
	if (!q.held || at < q.hold.at) && (len(q.heap) == 0 || at < q.heap[0].at) {
		if q.held {
			q.toHeap(q.hold, q.holdP)
		}
		q.hold, q.holdP, q.held = e, payload, true
		q.reused++
	} else if q.toHeap(e, payload) {
		q.reused++
	}
	if n := q.Len(); n > q.maxDepth {
		q.maxDepth = n
	}
}

// toHeap stores payload in the arena and sifts e into the heap. It reports
// whether the payload reused a free-list slot rather than growing the arena.
func (q *Queue[P]) toHeap(e entry, payload P) (reused bool) {
	if n := len(q.free); n > 0 {
		e.idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[e.idx] = payload
		reused = true
	} else {
		e.idx = int32(len(q.arena))
		q.arena = append(q.arena, payload)
	}
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
	return reused
}

// MinAt returns the timestamp of the next entry; ok is false when empty.
func (q *Queue[P]) MinAt() (at int64, ok bool) {
	if q.held {
		return q.hold.at, true
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes and returns the earliest entry. The vacated hold slot or
// arena slot is zeroed (releasing any closure or pointer the payload held
// to the GC), and an arena slot is recycled. Pop panics if the queue is
// empty — the engine's dispatch loop checks Len first, so an empty Pop is a
// caller bug, not an input error.
func (q *Queue[P]) Pop() (at int64, payload P) {
	var zero P
	if q.held {
		payload = q.holdP
		q.holdP = zero
		q.held = false
		return q.hold.at, payload
	}
	if len(q.heap) == 0 {
		panic("eventq: Pop of empty queue")
	}
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	payload = q.arena[top.idx]
	q.arena[top.idx] = zero
	q.free = append(q.free, top.idx)
	return top.at, payload
}

// siftUp restores the heap property from leaf i toward the root. The moving
// entry is held in a register and written once at its final slot.
func (q *Queue[P]) siftUp(i int) {
	e := q.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// siftDown restores the heap property from slot i toward the leaves,
// descending through the smallest of up to four children per level.
func (q *Queue[P]) siftDown(i int) {
	e := q.heap[i]
	n := len(q.heap)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.heap[c].before(q.heap[min]) {
				min = c
			}
		}
		if !q.heap[min].before(e) {
			break
		}
		q.heap[i] = q.heap[min]
		i = min
	}
	q.heap[i] = e
}
