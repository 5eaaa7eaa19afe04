package serve

import "testing"

// FuzzKVPool drives one admit/grow/release sequence over a few sequences
// against a plain reference model that counts each sequence's tokens and
// blocks one token at a time. After every op the pool's used count must equal the blocks the
// sequences hold, stay within total, and peak must be the high-water mark.
// Each op byte selects by its low three bits, on the sequence its high five
// bits pick (mod 8):
//
//	0    admit the next byte+1 tokens, honouring the watermark
//	1    forced admit of the next byte+1 tokens (empty running set)
//	2-4  grow one token
//	5    release
//	6    grow every resident sequence the next byte%64+1 tokens at once,
//	     as a closed-form decode run does, when growBlocks says it fits;
//	     stepping the same growth one token at a time must agree
//	7    grow every resident sequence one token, as a decode iteration does
//
// Run it with `go test -run '^$' -fuzz '^FuzzKVPool$' ./internal/serve`
// (or `make fuzz`); plain test runs replay the seed corpus only.
func FuzzKVPool(f *testing.F) {
	mixed := []byte{0, 40, 8, 200, 2, 10, 18, 7, 7, 6, 30, 5, 1, 3, 13, 6, 63, 7, 21, 0, 255}
	churn := []byte{1, 255, 9, 255, 17, 100, 6, 63, 7, 5, 13, 0, 15, 6, 5, 2, 10, 7, 7, 29}
	fill := []byte{1, 15, 7, 7, 7, 10, 6, 3, 13, 6, 0, 8, 0, 5, 1, 0, 7, 7}
	for _, total := range []uint16{1, 2, 17, 100, 4097} {
		f.Add(total, uint8(16), mixed)
		f.Add(total, uint8(7), churn)
		f.Add(total, uint8(1), fill)
	}
	f.Fuzz(func(t *testing.T, total uint16, blockTokens uint8, ops []byte) {
		if total == 0 || total > 8192 || blockTokens == 0 {
			return
		}
		bt := int(blockTokens)
		const tokenBytes = 128 << 10
		k := newKVPool(int64(total)*int64(bt)*tokenBytes, tokenBytes, bt)
		if k.totalBlocks != int(total) {
			t.Fatalf("pool of %d blocks reports %d", total, k.totalBlocks)
		}
		var (
			seqs     [8]request
			resident [8]bool
			// The reference: tokens and blocks each sequence holds.
			tokens, held [8]int
			peak         int
		)
		refUsed := func() int {
			n := 0
			for _, b := range held {
				n += b
			}
			return n
		}
		ceil := func(tokens int) int { return (tokens + bt - 1) / bt }
		arg := func(i *int) int {
			if *i+1 < len(ops) {
				*i++
				return int(ops[*i])
			}
			return 0
		}
		// refGrow grows the reference's sequence j one token, reporting
		// false when it needs a block and none is free.
		refGrow := func(j int) bool {
			if ceil(tokens[j]+1) > held[j] {
				if refUsed() == int(total) {
					return false
				}
				held[j]++
			}
			tokens[j]++
			return true
		}
		for i := 0; i < len(ops); i++ {
			op, j := ops[i]&7, int(ops[i]>>3)%8
			s := &seqs[j]
			switch op {
			case 0, 1:
				if resident[j] {
					continue
				}
				n := arg(&i) + 1
				force := op == 1
				headroom := k.watermark
				if force {
					headroom = 0
				}
				want := ceil(n)+headroom <= int(total)-refUsed()
				if got := k.admit(s, n, force); got != want {
					t.Fatalf("op %d: admit(%d tokens, force=%v) = %v with %d of %d used, watermark %d; want %v",
						i, n, force, got, refUsed(), total, k.watermark, want)
				}
				if want {
					resident[j], tokens[j], held[j] = true, n, ceil(n)
				}
			case 2, 3, 4:
				if !resident[j] {
					continue
				}
				if want, got := refGrow(j), k.grow(s); got != want {
					t.Fatalf("op %d: grow = %v, reference %v", i, got, want)
				}
			case 5:
				if !resident[j] {
					continue
				}
				k.release(s)
				resident[j], tokens[j], held[j] = false, 0, 0
			case 6:
				n := arg(&i)%64 + 1
				var run []*request
				for r := range seqs {
					if resident[r] {
						run = append(run, &seqs[r])
					}
				}
				fits := k.growBlocks(run, n) <= k.freeBlocks()
				// Step the same growth one token at a time in the reference,
				// keeping it only if every step fits.
				saveTokens, saveHeld := tokens, held
				ok := true
				for step := 0; step < n && ok; step++ {
					for r := range seqs {
						if resident[r] && !refGrow(r) {
							ok = false
							break
						}
					}
				}
				if fits != ok {
					t.Fatalf("op %d: growBlocks says %d tokens each fit = %v, stepping says %v", i, n, fits, ok)
				}
				if !ok {
					tokens, held = saveTokens, saveHeld
					continue
				}
				for _, s := range run {
					k.take(s, k.blocksFor(s.kvTokens+n)-s.kvBlocks)
					s.kvTokens += n
				}
			case 7:
				for r := range seqs {
					if !resident[r] {
						continue
					}
					if want, got := refGrow(r), k.grow(&seqs[r]); got != want {
						t.Fatalf("op %d: decode grow of seq %d = %v, reference %v", i, r, got, want)
					}
				}
			}
			used := refUsed()
			peak = max(peak, used)
			if k.used != used || k.used > k.totalBlocks || k.peak != peak {
				t.Fatalf("op %d: pool used %d peak %d of %d, reference used %d peak %d",
					i, k.used, k.peak, k.totalBlocks, used, peak)
			}
			for r := range seqs {
				if seqs[r].kvBlocks != held[r] || seqs[r].kvTokens != tokens[r] && resident[r] {
					t.Fatalf("op %d: seq %d holds %d blocks for %d tokens, reference %d for %d",
						i, r, seqs[r].kvBlocks, seqs[r].kvTokens, held[r], tokens[r])
				}
			}
		}
	})
}
