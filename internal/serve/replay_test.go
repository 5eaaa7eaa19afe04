package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hccsim/internal/obs"
)

// runPair runs cfg unobserved and then with an observer attached, which
// must end every span the run begins. The observer makes every token-id
// and swap copy run its step chain and every decode iteration run step by
// step, while the unobserved run replays the copies nothing else can see
// and folds uninterruptible decode iterations into closed-form runs.
func runPair(t *testing.T, cfg Config) (plain, observed outcome) {
	t.Helper()
	cfg.Observer = nil
	plain, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = obs.New()
	observed, err = run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Observer.Open(); n != 0 {
		t.Errorf("observed run left %d spans open", n)
	}
	return plain, observed
}

// timeline is the part of a request's outcome the differential compares.
type timeline struct {
	arrival, firstTokenAt, doneAt simTime
	generated, preemptions        int
	rejected                      bool
}

func timelineOf(s *request) timeline {
	return timeline{s.arrival, s.firstTokenAt, s.doneAt, s.generated, s.preemptions, s.rejected}
}

// sameRun fails t unless the two runs of one config agree on the report,
// on every request's timeline, on the KV high-water mark and on the
// substrate counters the copies add to, and unless both conserve KV.
func sameRun(t *testing.T, plain, observed outcome) {
	t.Helper()
	if !reflect.DeepEqual(plain.rep, observed.rep) {
		t.Errorf("unobserved report differs from observed\n--- unobserved\n%s--- observed\n%s", plain.rep, observed.rep)
	}
	for i, s := range plain.wl {
		if p, o := timelineOf(s), timelineOf(observed.wl[i]); p != o {
			t.Errorf("request %d: unobserved %+v, observed %+v", i, p, o)
		}
	}
	if plain.kv.peak != observed.kv.peak {
		t.Errorf("KV peak: unobserved %d blocks, observed %d", plain.kv.peak, observed.kv.peak)
	}
	pp, op := plain.rt.Platform(), observed.rt.Platform()
	if p, o := pp.Stats(), op.Stats(); p != o {
		t.Errorf("platform stats: unobserved %+v, observed %+v", p, o)
	}
	if p, o := pp.CryptoBusy(), op.CryptoBusy(); p != o {
		t.Errorf("crypto busy: unobserved %v, observed %v", p, o)
	}
	if p, o := plain.rt.Link().Counters(), observed.rt.Link().Counters(); p != o {
		t.Errorf("link counters: unobserved %+v, observed %+v", p, o)
	}
	kvConserved(t, plain)
	kvConserved(t, observed)
}

// kvConserved is the run-end KV balance: a drained run leaves no block held,
// in the pool or by any request.
func kvConserved(t *testing.T, o outcome) {
	t.Helper()
	if o.kv.used != 0 {
		t.Errorf("drained run still holds %d KV blocks", o.kv.used)
	}
	for _, s := range o.wl {
		if s.kvBlocks != 0 {
			t.Errorf("request %d holds %d KV blocks after the run", s.id, s.kvBlocks)
		}
	}
}

// TestObserverDifferential is the serving oracle for copy replay and
// closed-form decode runs: an unobserved run must match an observed one
// request by request, in every protection mode, below and above the
// capacity knee, with and without a KV pool small enough to force
// preemption and swap traffic, and in cells that end decode runs at each
// of their bounds.
func TestObserverDifferential(t *testing.T) {
	modes := []string{"off", "tdx-h100", "tdx-h100+pipelined",
		"tee-io-direct", "tee-io-bridge", "tee-io-bridge+pipelined"}
	preempted, fewer := false, false
	cell := func(t *testing.T, cfg Config) outcome {
		plain, observed := runPair(t, cfg)
		sameRun(t, plain, observed)
		preempted = preempted || plain.rep.Preemptions > 0
		fewer = fewer || plain.rt.Engine().Fired() < observed.rt.Engine().Fired()
		return plain
	}
	for _, mode := range modes {
		for _, rate := range []float64{0.8, 2.0} {
			for _, kvCap := range []int64{0, 4 << 30} {
				t.Run(fmt.Sprintf("%s@%g/kv=%d", mode, rate, kvCap), func(t *testing.T) {
					plain := cell(t, Config{Mode: mode, RateQPS: rate, Requests: 40, Seed: 3, KVCapBytes: kvCap})
					// A decode iteration run step by step fires at least two
					// events (the host and compute sleeps), so where no swap
					// traffic adds events of its own, fewer events than
					// iterations means closed-form runs took over, arrivals
					// still pending included.
					if fired, iters := plain.rt.Engine().Fired(), plain.rep.DecodeIters; kvCap == 0 && fired >= uint64(iters) {
						t.Errorf("unobserved run fired %d events for %d decode iterations", fired, iters)
					}
				})
			}
		}
	}

	burst := make([]time.Duration, 24)
	for i := range burst {
		if i%8 == 7 {
			burst[i] = 400 * time.Millisecond
		}
	}
	bounds := []struct {
		name        string
		set         func(*Config)
		mustPreempt bool
	}{
		{"maxbatch=4", func(c *Config) { c.MaxBatch = 4 }, false},
		{"block=1", func(c *Config) { c.KVBlockTokens = 1 }, false},
		{"block=7", func(c *Config) { c.KVBlockTokens = 7 }, false},
		{"kv-preempt", func(c *Config) {
			c.KVCapBytes = 1536 * 128 * 1024
			c.PromptTokens = LengthDist{Mean: 512}
			c.OutputTokens = LengthDist{Mean: 512}
			c.Requests = 8
			c.Trace = make([]time.Duration, 8)
		}, true},
		{"burst", func(c *Config) { c.Trace = burst }, false},
	}
	for _, mode := range []string{"off", "tdx-h100", "tee-io-bridge"} {
		for _, b := range bounds {
			t.Run(mode+"/"+b.name, func(t *testing.T) {
				cfg := fastConfig(mode)
				b.set(&cfg)
				if rep := cell(t, cfg).rep; b.mustPreempt && rep.Preemptions == 0 {
					t.Error("the tiny KV pool no longer preempts")
				}
			})
		}
	}
	if !preempted {
		t.Error("no cell preempted: the 4 GiB KV pool no longer forces swap traffic")
	}
	if !fewer {
		t.Error("no unobserved run fired fewer events than its observed twin")
	}
}

// FuzzServeTrace replays arbitrary interarrival traces over a few short
// requests and requires the unobserved run to match the observed one
// request by request. Each gap byte scales by its top two bits (µs, 100 µs,
// ms, 10 ms units); mode picks the protection mode. Run it with
// `go test -run '^$' -fuzz '^FuzzServeTrace$' ./internal/serve` (or
// `make fuzz`); plain test runs replay the seed corpus only.
func FuzzServeTrace(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), []byte{200, 3, 0, 130, 0, 255, 64})
	f.Add(uint8(4), []byte{10, 10, 10, 10, 10, 10, 10, 10})
	f.Add(uint8(2), []byte{255, 0, 255, 0, 191, 127})
	f.Fuzz(func(t *testing.T, mode uint8, gaps []byte) {
		if len(gaps) == 0 {
			return
		}
		if len(gaps) > 8 {
			gaps = gaps[:8]
		}
		modes := []string{"off", "tdx-h100", "tdx-h100+pipelined", "tee-io-direct", "tee-io-bridge"}
		trace := make([]time.Duration, len(gaps))
		for i, g := range gaps {
			unit := []time.Duration{time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}[g>>6]
			trace[i] = time.Duration(g&63) * unit
		}
		cfg := Config{
			Mode:         modes[int(mode)%len(modes)],
			Seed:         uint64(mode) + 1,
			Trace:        trace,
			PromptTokens: LengthDist{Mean: 64, Spread: 32},
			OutputTokens: LengthDist{Mean: 48, Spread: 40},
			KVCapBytes:   256 * 128 * 1024, // 256 tokens: about two full-length sequences
			MaxBatch:     4,
		}
		plain, observed := runPair(t, cfg)
		sameRun(t, plain, observed)
	})
}
