package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

func TestSpanArithmetic(t *testing.T) {
	xs := normalize([]span{{5, 10}, {0, 3}, {9, 12}, {2, 2}})
	if len(xs) != 2 || xs[0] != (span{0, 3}) || xs[1] != (span{5, 12}) {
		t.Fatalf("normalize = %v", xs)
	}
	if measure(xs) != 10 {
		t.Fatalf("measure = %v", measure(xs))
	}
	rest := subtract([]span{{0, 20}}, xs)
	if measure(rest) != 10 {
		t.Fatalf("subtract remainder = %v (%v)", measure(rest), rest)
	}
}

func TestDecomposeEmptyTrace(t *testing.T) {
	m := Decompose(trace.New())
	if m.Total != 0 || m.Predict() != 0 {
		t.Fatalf("empty trace gave %+v", m)
	}
}

func TestDecomposeNilTracer(t *testing.T) {
	if m := Decompose(nil); m != (Model{}) {
		t.Fatalf("nil tracer gave %+v", m)
	}
}

// mapQueueGaps is the reference for queueGaps: launches written into a map
// by correlation id in record order, the last write winning, and each
// kernel matched through it.
func mapQueueGaps(launches, kernels []seqSpan) []span {
	bySeq := make(map[int]seqSpan)
	for _, l := range launches {
		bySeq[l.seq] = l
	}
	var gaps []span
	for _, k := range kernels {
		if l, ok := bySeq[k.seq]; ok && k.s > l.e {
			gaps = append(gaps, span{l.e, k.s})
		}
	}
	return gaps
}

// Property: binary search over launches stably sorted by correlation id
// finds the gaps of the map reference, on random traces with graph-style
// kernels sharing one launch, launches sharing an id (some with a tied
// start), and kernels whose launch was never recorded; the launches stay
// in record order.
func TestPropertyQueueGapsMatchMap(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var launches, kernels []seqSpan
		for i, n := 0, rng.Intn(80); i < n; i++ {
			start := sim.Time(rng.Int63n(2000))
			end := start + sim.Time(rng.Int63n(40))
			seq := i + 1
			if i > 0 && rng.Intn(4) == 0 {
				seq = rng.Intn(i) + 1 // an id shared with an earlier one
				if rng.Intn(2) == 0 {
					start, end = 500, 500+sim.Time(rng.Int63n(40)) // and a tied start
				}
			}
			if rng.Intn(6) > 0 {
				launches = append(launches, seqSpan{span{start, end}, seq})
			}
			for k := rng.Intn(4); k > 0; k-- {
				ks := sim.Time(rng.Int63n(2500))
				kernels = append(kernels, seqSpan{span{ks, ks + sim.Time(rng.Int63n(50))}, seq})
			}
		}
		recordOrder := slices.Clone(launches)
		got, want := queueGaps(launches, kernels), mapQueueGaps(launches, kernels)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: gaps %v, map reference %v", seed, got, want)
		}
		if !slices.Equal(launches, recordOrder) {
			t.Fatalf("seed %d: queueGaps reordered the launches", seed)
		}
	}
}

func TestDecomposeSequentialNoOverlap(t *testing.T) {
	tr := trace.New()
	// alloc [0,10], copy [10,30], launch [30,35], kernel [40,100], free [100,110]
	tr.Record(trace.Event{Kind: trace.KindAlloc, Start: 0, End: 10})
	tr.Record(trace.Event{Kind: trace.KindMemcpyH2D, Start: 10, End: 30})
	seq := tr.NextSeq()
	tr.Record(trace.Event{Kind: trace.KindLaunch, Start: 30, End: 35, Seq: seq})
	tr.Record(trace.Event{Kind: trace.KindKernel, Start: 40, End: 100, Seq: seq})
	tr.Record(trace.Event{Kind: trace.KindFree, Start: 100, End: 110})

	m := Decompose(tr)
	if m.Tmem != 20 || m.KLO != 5 || m.KET != 60 || m.KQT != 5 {
		t.Fatalf("components wrong: %+v", m)
	}
	if m.Alpha != 0 {
		t.Fatalf("alpha = %f for non-overlapped copy", m.Alpha)
	}
	if m.Beta != 0 {
		t.Fatalf("beta = %f for non-overlapped kernel", m.Beta)
	}
	if m.Total != 110 {
		t.Fatalf("total = %v", m.Total)
	}
	if m.Predict() != m.Total {
		t.Fatalf("predict %v != total %v", m.Predict(), m.Total)
	}
}

func TestDecomposeKernelHiddenByLaunches(t *testing.T) {
	tr := trace.New()
	// Launch storm [0,100] with kernels entirely inside it: beta -> 1.
	for i := int64(0); i < 10; i++ {
		seq := tr.NextSeq()
		tr.Record(trace.Event{Kind: trace.KindLaunch, Start: sim.Time(i * 10), End: sim.Time(i*10 + 10), Seq: seq})
		tr.Record(trace.Event{Kind: trace.KindKernel, Start: sim.Time(i*10 + 2), End: sim.Time(i*10 + 8), Seq: seq})
	}
	m := Decompose(tr)
	if m.Beta < 0.99 {
		t.Fatalf("beta = %f, want ~1 (kernels hidden by launches)", m.Beta)
	}
	if !m.LaunchBound() {
		t.Fatalf("launch-bound app not classified as such: KLR=%f", m.KLR())
	}
	if m.Predict() != m.Total {
		t.Fatalf("predict %v != total %v", m.Predict(), m.Total)
	}
}

func TestDecomposeOverlappedCopy(t *testing.T) {
	tr := trace.New()
	seq := tr.NextSeq()
	tr.Record(trace.Event{Kind: trace.KindLaunch, Start: 0, End: 5, Seq: seq})
	tr.Record(trace.Event{Kind: trace.KindKernel, Start: 5, End: 105, Seq: seq})
	// Copy fully inside the kernel window: alpha = 1.
	tr.Record(trace.Event{Kind: trace.KindMemcpyH2D, Start: 20, End: 60})
	m := Decompose(tr)
	if m.Alpha < 0.99 {
		t.Fatalf("alpha = %f, want ~1", m.Alpha)
	}
	if m.Predict() != m.Total {
		t.Fatalf("predict %v != total %v", m.Predict(), m.Total)
	}
}

func TestKLRAndRatio(t *testing.T) {
	base := Model{KET: 100, KLO: 5, LQT: 5, LaunchTerm: 10, Tmem: 50, Alloc: 4, Free: 2, Total: 160}
	cc := Model{KET: 100, KLO: 10, LQT: 10, LaunchTerm: 20, Tmem: 250, Alloc: 20, Free: 20, Total: 390}
	if got := base.KLR(); got != 10 {
		t.Fatalf("KLR = %f", got)
	}
	r := Compare(base, cc)
	if r.Tmem != 5 || r.KLO != 2 || r.Alloc != 5 || r.Free != 10 {
		t.Fatalf("ratios wrong: %+v", r)
	}
	if (Model{}).KLR() != 0 {
		t.Fatal("KLR of empty model should be 0")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	tr := trace.New()
	tr.Record(trace.Event{Kind: trace.KindAlloc, Start: 0, End: 50})
	seq := tr.NextSeq()
	tr.Record(trace.Event{Kind: trace.KindLaunch, Start: 50, End: 60, Seq: seq})
	tr.Record(trace.Event{Kind: trace.KindKernel, Start: 70, End: 170, Seq: seq})
	m := Decompose(tr)
	a, b, c, d, idle := m.Breakdown()
	if sum := a + b + c + d + idle; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("breakdown sums to %f", sum)
	}
}

// Integration: decompose a real simulated run and require the model
// identity Predict() == Total to hold.
func TestDecomposeRealRun(t *testing.T) {
	for _, cc := range []bool{false, true} {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(cc))
		eng.Spawn("host", func(p *sim.Proc) {
			c := rt.Bind(p)
			h := c.HostBuffer("h", 64<<20)
			d := c.Malloc("d", 64<<20)
			c.Memcpy(d, h, 64<<20)
			for i := 0; i < 20; i++ {
				c.Launch(gpu.KernelSpec{Name: "k", Fixed: 300 * time.Microsecond}, nil)
			}
			c.Sync()
			c.Memcpy(h, d, 64<<20)
			c.Free(d)
		})
		eng.Run()
		m := Decompose(rt.Tracer())
		if m.Total <= 0 || m.Kernels != 20 {
			t.Fatalf("cc=%v: bad model %+v", cc, m)
		}
		diff := math.Abs(float64(m.Predict()-m.Total)) / float64(m.Total)
		if diff > 0.01 {
			t.Fatalf("cc=%v: predict %v vs total %v (%.2f%% off)", cc, m.Predict(), m.Total, 100*diff)
		}
	}
}

// Property: for arbitrary launch/kernel traces the reconstruction identity
// holds and all coefficients stay in [0,1].
func TestPropertyModelIdentity(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.New()
		cursor := int64(0)
		for i := 0; i < int(n%20)+1; i++ {
			seq := tr.NextSeq()
			ls := cursor + int64(rng.Intn(50))
			le := ls + 1 + int64(rng.Intn(20))
			tr.Record(trace.Event{Kind: trace.KindLaunch, Start: sim.Time(ls), End: sim.Time(le), Seq: seq})
			ks := le + int64(rng.Intn(30))
			ke := ks + 1 + int64(rng.Intn(200))
			tr.Record(trace.Event{Kind: trace.KindKernel, Start: sim.Time(ks), End: sim.Time(ke), Seq: seq})
			if rng.Intn(2) == 0 {
				cs := ls + int64(rng.Intn(100))
				tr.Record(trace.Event{Kind: trace.KindMemcpyH2D, Start: sim.Time(cs), End: sim.Time(cs + 1 + int64(rng.Intn(80)))})
			}
			cursor = le
		}
		m := Decompose(tr)
		if m.Alpha < 0 || m.Alpha > 1 || m.Beta < 0 || m.Beta > 1 {
			return false
		}
		// The identity can drift only when a category self-overlaps (e.g.
		// two copies at once); this generator keeps copies sparse, so allow
		// a small tolerance.
		diff := math.Abs(float64(m.Predict() - m.Total))
		return diff <= 0.05*float64(m.Total)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStringOutput(t *testing.T) {
	m := Model{Total: 100, Tmem: 10, LaunchTerm: 20, KernelTerm: 30, Tother: 5}
	s := m.String()
	if len(s) == 0 {
		t.Fatal("empty string")
	}
}
