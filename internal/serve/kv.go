package serve

// kvPool accounts paged KV-cache memory in blocks of KVBlockTokens tokens
// each, allocated as sequences grow one token per decode iteration and
// released on completion or preemption. Every block is the same size and no
// output reads where a block lives, so the pool is a count: used blocks
// against total, with the high-water mark for the report. Admission
// feasibility is a free-block comparison, and a sequence holds a block count
// that always equals blocksFor(kvTokens).
type kvPool struct {
	blockBytes  int64
	blockTokens int
	totalBlocks int
	used, peak  int // blocks held now and at most
	// watermark holds back a slice of blocks at admission time (vLLM-style)
	// so running sequences have headroom to grow before preemption kicks in.
	watermark int
}

func newKVPool(capBytes, tokenBytes int64, blockTokens int) *kvPool {
	blockBytes := int64(blockTokens) * tokenBytes
	total := int(capBytes / blockBytes)
	return &kvPool{
		blockBytes:  blockBytes,
		blockTokens: blockTokens,
		totalBlocks: total,
		watermark:   max(total/100, 1),
	}
}

// blocksFor returns the block count covering tokens tokens.
func (k *kvPool) blocksFor(tokens int) int {
	return (tokens + k.blockTokens - 1) / k.blockTokens
}

// freeBlocks returns the number of unallocated blocks.
func (k *kvPool) freeBlocks() int { return k.totalBlocks - k.used }

// take moves n free blocks to s.
func (k *kvPool) take(s *request, n int) {
	s.kvBlocks += n
	k.used += n
	k.peak = max(k.peak, k.used)
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
	k.take(s, need)
	s.kvTokens = tokens
	return true
}

// grow extends a sequence's KV by one token, taking a block at block
// boundaries; returns false (state unchanged) when the pool is exhausted.
func (k *kvPool) grow(s *request) bool {
	if k.blocksFor(s.kvTokens+1) > s.kvBlocks {
		if k.used == k.totalBlocks {
			return false
		}
		k.take(s, 1)
	}
	s.kvTokens++
	return true
}

// growBlocks returns the blocks that growing every sequence in run by n
// tokens would take.
func (k *kvPool) growBlocks(run []*request, n int) int {
	blocks := 0
	for _, s := range run {
		blocks += k.blocksFor(s.kvTokens+n) - s.kvBlocks
	}
	return blocks
}

// release frees all of a sequence's blocks (completion or preemption). It
// panics when the pool holds fewer blocks than the sequence claims — a
// double free, which is a scheduler bug, not an input error.
func (k *kvPool) release(s *request) {
	if s.kvBlocks > k.used {
		panic("serve: kv release of more blocks than the pool holds") // double free = scheduler bug
	}
	k.used -= s.kvBlocks
	s.kvBlocks = 0
}

// peakBytes is the high-water mark in bytes.
func (k *kvPool) peakBytes() int64 { return int64(k.peak) * k.blockBytes }
