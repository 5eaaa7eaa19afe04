package serve

import (
	"math"
	"time"

	"hccsim/internal/obs"
)

// rng is a splitmix64 PRNG. The generator is written out here rather than
// taken from math/rand so the stream is pinned by this file alone: golden
// figures replay these exact draws, and nothing in a future stdlib can
// shift them. It satisfies the determinism contract hcclint's
// nondeterminism analyzer enforces — the seed is injected, never sampled.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp1 returns a unit-mean exponential draw via inverse CDF.
func (r *rng) exp1() float64 { return -math.Log(1 - r.float64()) }

// request is one offered request: lengths drawn up front, outcome filled
// in by the scheduler.
type request struct {
	id           int
	gap          time.Duration // interarrival gap before this request
	promptTokens int
	outputTokens int
	arrival      simTime
	firstTokenAt simTime
	doneAt       simTime
	rejected     bool
	generated    int  // output tokens emitted so far (1 after prefill)
	kvTokens     int  // tokens with KV resident on-device
	kvBlocks     int  // KV blocks held: blocksFor(kvTokens) while resident, else 0
	swappedOut   bool // preempted: KV lives host-side, swap in on re-admit
	preemptions  int
	asp          obs.Span // lifecycle interval, arrival -> done/reject
}

// simTime is simulated nanoseconds since engine start (mirrors sim.Time
// without importing it into the workload layer).
type simTime int64

// drawWorkload draws the full offered workload from cfg.Seed before the
// simulation starts: prompt/output lengths and a NORMALIZED arrival shape.
// Poisson gaps are drawn as unit-mean exponentials and scaled by 1/RateQPS,
// so every probe rate replays the same arrival pattern, merely compressed —
// attainment varies smoothly with rate and capacity search stays
// deterministic. Trace mode replays cfg.Trace verbatim.
func drawWorkload(cfg Config) []*request {
	r := newRNG(cfg.Seed)
	draw := func(d LengthDist) int {
		n := d.Mean
		if d.Spread > 0 {
			n = d.Mean - d.Spread + r.intn(2*d.Spread+1)
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	reqs := make([]*request, cfg.Requests)
	for i := range reqs {
		var gap time.Duration
		if len(cfg.Trace) > 0 {
			gap = cfg.Trace[i]
			if gap < 0 {
				gap = 0
			}
		} else {
			gap = time.Duration(r.exp1() / cfg.RateQPS * float64(time.Second))
		}
		reqs[i] = &request{
			id:           i,
			gap:          gap,
			promptTokens: draw(cfg.PromptTokens),
			outputTokens: draw(cfg.OutputTokens),
		}
	}
	return reqs
}
