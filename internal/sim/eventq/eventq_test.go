package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPopOrderByTimeThenSeq(t *testing.T) {
	var q Queue[int]
	q.Push(30, 3)
	q.Push(10, 1)
	q.Push(20, 2)
	q.Push(10, 4) // same time as the second push: must pop after it
	wantAt := []int64{10, 10, 20, 30}
	wantPayload := []int{1, 4, 2, 3}
	for i := range wantAt {
		at, v := q.Pop()
		if at != wantAt[i] || v != wantPayload[i] {
			t.Fatalf("pop %d = (%d, %d), want (%d, %d)", i, at, v, wantAt[i], wantPayload[i])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: len=%d", q.Len())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1000; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 1000; i++ {
		if _, v := q.Pop(); v != i {
			t.Fatalf("same-time entries not FIFO at %d: got %d", i, v)
		}
	}
}

func TestMinAt(t *testing.T) {
	var q Queue[string]
	if _, ok := q.MinAt(); ok {
		t.Fatal("MinAt on empty queue returned ok")
	}
	q.Push(42, "x")
	at, ok := q.MinAt()
	if !ok || at != 42 {
		t.Fatalf("MinAt = (%d, %v), want (42, true)", at, ok)
	}
	if q.Len() != 1 {
		t.Fatal("MinAt consumed the entry")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Pop of empty queue")
		}
	}()
	var q Queue[int]
	q.Pop()
}

// Each push sorts after the entry already queued, so it goes through the
// heap and the arena rather than the hold slot; only the first push, into an
// empty queue, is held.
func TestFreeListReuseKeepsArenaBounded(t *testing.T) {
	var q Queue[int]
	q.Push(0, 0)
	// Steady state: two in flight, many iterations.
	for i := 1; i <= 10000; i++ {
		q.Push(int64(i), i)
		q.Pop()
	}
	if len(q.arena) != 2 {
		t.Fatalf("arena grew to %d slots in steady state, want 2", len(q.arena))
	}
	// The held first push plus every heap push after the arena's two
	// growing ones.
	if q.Reused() != 9999 {
		t.Fatalf("reused = %d, want 9999", q.Reused())
	}
	if q.MaxDepth() != 2 {
		t.Fatalf("maxDepth = %d, want 2", q.MaxDepth())
	}
}

func TestPopZeroesArenaSlot(t *testing.T) {
	var q Queue[*int]
	v, w := 7, 8
	q.Push(1, &v) // held
	q.Push(2, &w) // sorts after the held entry: lands in the arena
	q.Pop()
	if q.holdP != nil {
		t.Fatal("popped hold slot still references its payload")
	}
	q.Pop()
	// The freed slot must not pin the payload.
	if q.arena[0] != nil {
		t.Fatal("popped arena slot still references its payload")
	}
}

// An earlier push evicts the held entry into the heap; the evicted entry
// keeps its place in (time, seq) order and is not counted as reused again.
func TestHoldEviction(t *testing.T) {
	var q Queue[string]
	q.Push(20, "a") // held
	q.Push(10, "b") // earlier: evicts "a" into the heap, arena grows
	q.Push(10, "c") // same time as the held "b": heap
	q.Push(5, "d")  // earlier again: evicts "b"
	if q.Len() != 4 || len(q.heap) != 3 || !q.held {
		t.Fatalf("len %d, heap %d, held %v; want 4, 3, true", q.Len(), len(q.heap), q.held)
	}
	if q.Reused() != 3 {
		t.Fatalf("reused = %d, want 3 (the three held pushes)", q.Reused())
	}
	for _, want := range []string{"d", "b", "c", "a"} {
		if _, got := q.Pop(); got != want {
			t.Fatalf("pop = %q, want %q", got, want)
		}
	}
}

// Property: any push schedule pops in nondecreasing time order, with pushes
// at equal times popping in push order; every payload comes out exactly once.
func TestPropertyHeapOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		var q Queue[int]
		type pushed struct {
			at int64
			id int
		}
		var all []pushed
		for i := 0; i < count; i++ {
			at := int64(rng.Intn(20)) // dense times force ties
			q.Push(at, i)
			all = append(all, pushed{at, i})
		}
		// Expected order: stable sort by time (stability = push order).
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
		for i := 0; i < count; i++ {
			at, id := q.Pop()
			if at != all[i].at || id != all[i].id {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop keeps order among live entries.
func TestPropertyInterleavedPushPop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int64]
		var clock int64
		for i := 0; i < 500; i++ {
			if q.Len() == 0 || rng.Intn(2) == 0 {
				q.Push(clock+int64(rng.Intn(50)), clock)
			} else {
				at, _ := q.Pop()
				if at < clock {
					return false // time went backwards
				}
				clock = at
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueue drives random Push/Pop/MinAt interleavings — pushes never
// earlier than the last pop, as in the engine — against a reference slice
// kept stable-sorted by (time, push order). Each op byte selects the
// operation; pushes take their time offset from the next byte.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 1, 0, 1, 2, 1, 1})    // hold eviction
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 1, 2})       // equal times, empty hold
	f.Add([]byte{0, 9, 0, 1, 1, 0, 0, 0, 4, 1, 1}) // push after popping the hold
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			at int64
			id int
		}
		var q Queue[int]
		var want []ref
		var clock int64
		pushes := 0
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0:
				at := clock
				if i+1 < len(ops) {
					i++
					at += int64(ops[i] % 16)
				}
				id := pushes
				pushes++
				q.Push(at, id)
				// Insert after every entry at or before at: stable order.
				j := sort.Search(len(want), func(k int) bool { return want[k].at > at })
				want = append(want, ref{})
				copy(want[j+1:], want[j:])
				want[j] = ref{at, id}
			case 1:
				if len(want) == 0 {
					continue
				}
				at, id := q.Pop()
				if at != want[0].at || id != want[0].id {
					t.Fatalf("op %d: pop = (%d, %d), want (%d, %d)", i, at, id, want[0].at, want[0].id)
				}
				clock = at
				want = want[1:]
			case 2:
				at, ok := q.MinAt()
				if ok != (len(want) > 0) || ok && at != want[0].at {
					t.Fatalf("op %d: MinAt = (%d, %v), want %v", i, at, ok, want)
				}
			}
			if q.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), len(want))
			}
		}
	})
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[func()]
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(int64(i), fn)
		q.Pop()
	}
}

func BenchmarkPushPopDepth1000(b *testing.B) {
	var q Queue[func()]
	fn := func() {}
	for i := 0; i < 1000; i++ {
		q.Push(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(int64(i+1000), fn)
		q.Pop()
	}
}
