package serve

import "hccsim/internal/hbm"

// kvPool accounts paged KV-cache memory against an hbm.SlotAllocator: fixed
// 2 MiB-class blocks of KVBlockTokens tokens each, allocated as sequences
// grow one token per decode iteration and released on completion or
// preemption. Because every block is the same size the heap never
// fragments, so admission feasibility reduces to a free-block count — and
// the allocator's free-slot bitmap hands out exactly the offsets first-fit
// would (always the lowest free block) in a few word scans, without the
// general free list's O(n) release cost.
type kvPool struct {
	alloc       *hbm.SlotAllocator
	blockBytes  int64
	blockTokens int
	totalBlocks int
	// watermark holds back a slice of blocks at admission time (vLLM-style)
	// so running sequences have headroom to grow before preemption kicks in.
	watermark int
}

func newKVPool(capBytes, tokenBytes int64, blockTokens int) *kvPool {
	blockBytes := int64(blockTokens) * tokenBytes
	total := int(capBytes / blockBytes)
	p := &kvPool{
		alloc:       hbm.NewSlotAllocator(blockBytes, total),
		blockBytes:  blockBytes,
		blockTokens: blockTokens,
		totalBlocks: total,
		watermark:   total / 100,
	}
	if p.watermark < 1 {
		p.watermark = 1
	}
	return p
}

// blocksFor returns the block count covering tokens tokens.
func (k *kvPool) blocksFor(tokens int) int {
	return (tokens + k.blockTokens - 1) / k.blockTokens
}

// freeBlocks returns the number of unallocated blocks.
func (k *kvPool) freeBlocks() int {
	return k.alloc.FreeSlots()
}

// fitsEver reports whether a sequence of maxTokens can ever hold its full
// KV in an empty pool — requests beyond it must be rejected up front or
// they would preempt forever.
func (k *kvPool) fitsEver(maxTokens int) bool {
	return k.blocksFor(maxTokens) <= k.totalBlocks
}

// admit reserves blocks for a sequence's resident tokens plus the
// watermark headroom; returns false without reserving when they do not
// fit. force skips the watermark — used when the running set is empty, so
// the head request always admits and the scheduler cannot livelock.
func (k *kvPool) admit(s *request, tokens int, force bool) bool {
	need := k.blocksFor(tokens)
	headroom := k.watermark
	if force {
		headroom = 0
	}
	if need+headroom > k.freeBlocks() {
		return false
	}
	if s.kvBlocks == nil {
		// Sized once for the sequence's full length, so neither this admit
		// nor any grow reallocates; release keeps the capacity.
		s.kvBlocks = make([]int64, 0, k.blocksFor(s.promptTokens+s.outputTokens))
	}
	for i := 0; i < need; i++ {
		off, ok := k.alloc.TryAlloc()
		if !ok {
			// Unreachable given the free-count check above (uniform blocks
			// cannot fragment); fail closed by rolling back.
			k.release(s)
			return false
		}
		s.kvBlocks = append(s.kvBlocks, off)
	}
	s.kvTokens = tokens
	return true
}

// grow extends a sequence's KV by one token, allocating a block at block
// boundaries; returns false (state unchanged) when the pool is exhausted.
func (k *kvPool) grow(s *request) bool {
	if k.blocksFor(s.kvTokens+1) > len(s.kvBlocks) {
		off, ok := k.alloc.TryAlloc()
		if !ok {
			return false
		}
		s.kvBlocks = append(s.kvBlocks, off)
	}
	s.kvTokens++
	return true
}

// release frees all of a sequence's blocks (completion or preemption).
// Panics on a double free — that is a scheduler bug, not an input error.
func (k *kvPool) release(s *request) {
	for _, off := range s.kvBlocks {
		if err := k.alloc.Release(off); err != nil {
			panic("serve: kv release: " + err.Error()) // double free = scheduler bug
		}
	}
	s.kvBlocks = s.kvBlocks[:0]
}

// usedBytes and peakBytes expose the allocator's accounting.
func (k *kvPool) usedBytes() int64 { return k.alloc.Used() }
func (k *kvPool) peakBytes() int64 { return k.alloc.Peak() }
