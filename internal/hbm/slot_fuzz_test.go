package hbm

import (
	"slices"
	"testing"
)

// slotGranule is the differential tests' block size: one 64 KiB GPU page.
const slotGranule = 1 << 16

// FuzzSlotAllocator drives one alloc/release sequence against a
// SlotAllocator and a granule-aligned first-fit Allocator of the same
// capacity, which must agree on every offset and every accounting figure.
// Each op byte selects by its low three bits:
//
//	0-3  alloc one granule
//	4-5  release a live granule; the high five bits pick it, counting from
//	     the oldest allocation below 16 and from the newest above
//	6    an invalid release (double free, misaligned or out of range),
//	     chosen by the high bits; both allocators must refuse it
//	7    alloc until both report exhaustion
//
// Run it with `go test -run '^$' -fuzz '^FuzzSlotAllocator$' ./internal/hbm`
// (or `make fuzz`); plain test runs replay the seed corpus only.
func FuzzSlotAllocator(f *testing.F) {
	mixed := []byte{0, 0, 0, 4, 0, 12, 6, 14, 22, 0, 1, 2, 5, 0, 0, 3, 132, 4, 6, 0}
	churn := []byte{7, 4, 132, 4, 252, 0, 0, 0, 7, 6, 14, 22, 12, 20, 0, 1, 7}
	for _, slots := range []uint16{1, 63, 64, 65, 4097} {
		f.Add(slots, mixed)
		f.Add(slots, churn)
		f.Add(slots, []byte{7, 0, 6, 14, 22, 132, 140, 148, 156, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, slots uint16, ops []byte) {
		if slots == 0 || slots > 8192 {
			return
		}
		n := int(slots)
		got := NewSlotAllocator(slotGranule, n)
		want := NewAllocator(Params{CapacityBytes: int64(n) * slotGranule, AlignBytes: slotGranule})
		var live, released []int64

		alloc := func(i int) bool {
			off, ok := got.TryAlloc()
			wantOff, wantOK := want.TryAlloc(slotGranule)
			if ok != wantOK || off != wantOff {
				t.Fatalf("op %d: TryAlloc = %#x,%v, first-fit gives %#x,%v", i, off, ok, wantOff, wantOK)
			}
			if ok {
				live = append(live, off)
			}
			return ok
		}
		refuse := func(i int, off int64, why string) {
			if err := got.Release(off); err == nil {
				t.Fatalf("op %d: %s release of %#x succeeded, want an error", i, why, off)
			}
			if err := want.Release(off); err == nil {
				t.Fatalf("op %d: reference accepted %s release of %#x", i, why, off)
			}
		}

		for i, b := range ops {
			k := int(b >> 3)
			switch op := b & 7; {
			case op < 4:
				alloc(i)
			case op < 6:
				if len(live) == 0 {
					alloc(i)
					break
				}
				j := k % len(live)
				if k >= 16 {
					j = len(live) - 1 - (k-16)%len(live)
				}
				off := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := got.Release(off); err != nil {
					t.Fatalf("op %d: Release(%#x): %v", i, off, err)
				}
				if err := want.Release(off); err != nil {
					t.Fatalf("op %d: reference Release(%#x): %v", i, off, err)
				}
				released = append(released, off)
			case op == 6:
				switch k % 3 {
				case 0:
					off := int64(n) * slotGranule // never allocated
					for _, r := range released {
						if !slices.Contains(live, r) {
							off = r
							break
						}
					}
					refuse(i, off, "double-free")
				case 1:
					off := int64(k/3%n) * slotGranule
					refuse(i, off+slotGranule/2, "misaligned")
				default:
					off := int64(n+k/3) * slotGranule
					if k%2 == 1 {
						off = -slotGranule
					}
					refuse(i, off, "out-of-range")
				}
			default:
				for alloc(i) {
				}
				if got.FreeSlots() != 0 {
					t.Fatalf("op %d: exhausted with %d free slots", i, got.FreeSlots())
				}
			}

			if got.Used() != want.Used() || got.Peak() != want.Peak() || got.Free() != want.Free() {
				t.Fatalf("op %d: used/peak/free = %d/%d/%d, first-fit gives %d/%d/%d", i,
					got.Used(), got.Peak(), got.Free(), want.Used(), want.Peak(), want.Free())
			}
			if fs := got.FreeSlots(); int64(fs)*slotGranule != want.Free() || fs != n-len(live) {
				t.Fatalf("op %d: FreeSlots = %d, want %d", i, fs, n-len(live))
			}
		}
	})
}
