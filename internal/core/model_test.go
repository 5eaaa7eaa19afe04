package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

// span is a half-open interval [start, end) on the simulated timeline.
type span struct {
	s, e sim.Time
}

func (x span) dur() time.Duration { return x.e.Sub(x.s) }

// normalize sorts and merges overlapping spans.
func normalize(xs []span) []span {
	var out []span
	sort.Slice(xs, func(i, j int) bool { return xs[i].s < xs[j].s })
	for _, x := range xs {
		if x.e <= x.s {
			continue
		}
		if n := len(out); n > 0 && x.s <= out[n-1].e {
			if x.e > out[n-1].e {
				out[n-1].e = x.e
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// measure returns the total length of a normalized span set.
func measure(xs []span) time.Duration {
	var d time.Duration
	for _, x := range xs {
		d += x.dur()
	}
	return d
}

// subtract returns the parts of xs not covered by the normalized set ys.
func subtract(xs, ys []span) []span {
	var out []span
	for _, x := range xs {
		cur := x
		for _, y := range ys {
			if y.e <= cur.s || y.s >= cur.e {
				continue
			}
			if y.s > cur.s {
				out = append(out, span{cur.s, y.s})
			}
			if y.e >= cur.e {
				cur.s = cur.e
				break
			}
			cur.s = y.e
		}
		if cur.e > cur.s {
			out = append(out, cur)
		}
	}
	return normalize(out)
}

// seqSpan is a launch interval with its correlation id.
type seqSpan struct {
	span
	seq int
}

// decomposeRef is the reference for Decompose: the span-set projection
// that builds each category's spans, normalizes them, and subtracts the
// union of the higher-priority ones. Kernels match launches through a map
// by correlation id written in start order, the last write winning.
func decomposeRef(tr *trace.Tracer) Model {
	m := Model{}
	if tr.Len() == 0 {
		return m
	}
	met := tr.Analyze()
	m.KLO, m.LQT, m.KET, m.KQT = met.KLO, met.LQT, met.KET, met.KQT
	m.CopyH2D, m.CopyD2H, m.CopyD2D = met.CopyH2D, met.CopyD2H, met.CopyD2D
	m.Alloc, m.Free, m.Sync = met.AllocTime, met.FreeTime, met.SyncTime
	m.Launches, m.Kernels = met.Launches, met.Kernels
	m.Tmem = met.CopyH2D + met.CopyD2H + met.CopyD2D
	m.LaunchTerm = met.KLO + met.LQT
	m.KernelTerm = met.KET + met.KQT
	m.Tother = met.AllocTime + met.FreeTime + met.SyncTime

	// Build category span sets. C is split into execution (kernel events)
	// and queuing (KQT gaps).
	var bSpans, cExec, aSpans, dSpans []span
	var launches, kernels []seqSpan
	for e := range tr.All() {
		x := span{e.Start, e.End}
		switch e.Kind {
		case trace.KindLaunch:
			bSpans = append(bSpans, x)
			launches = append(launches, seqSpan{x, e.Seq})
		case trace.KindKernel:
			cExec = append(cExec, x)
			kernels = append(kernels, seqSpan{x, e.Seq})
		case trace.KindMemcpyH2D, trace.KindMemcpyD2H, trace.KindMemcpyD2D:
			aSpans = append(aSpans, x)
		case trace.KindAlloc, trace.KindFree, trace.KindSync:
			dSpans = append(dSpans, x)
		}
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i].s < launches[j].s })
	bySeq := make(map[int]seqSpan)
	for _, l := range launches {
		bySeq[l.seq] = l
	}
	var cGaps []span
	for _, k := range kernels {
		if l, ok := bySeq[k.seq]; ok && k.s > l.e {
			cGaps = append(cGaps, span{l.e, k.s})
		}
	}
	// LQT gaps join B, but only the parts not spent in other traced work.
	var rawGaps []span
	for i := 1; i < len(launches); i++ {
		if launches[i].s > launches[i-1].e {
			rawGaps = append(rawGaps, span{launches[i-1].e, launches[i].s})
		}
	}
	otherWork := normalize(append(append(append([]span{}, cExec...), aSpans...), dSpans...))
	bSpans = append(bSpans, subtract(normalize(rawGaps), otherWork)...)

	// Priority projection B > C_exec > A > C_gap > D.
	bSpans = normalize(bSpans)
	cExec = normalize(cExec)
	cGaps = normalize(cGaps)
	aSpans = normalize(aSpans)
	dSpans = normalize(dSpans)

	cExecVisible := subtract(cExec, bSpans)
	bc := normalize(append(append([]span{}, bSpans...), cExec...))
	aVisible := subtract(aSpans, bc)
	bca := normalize(append(append([]span{}, bc...), aSpans...))
	cGapVisible := subtract(cGaps, bca)
	bcac := normalize(append(append([]span{}, bca...), cGaps...))
	dVisible := subtract(dSpans, bcac)

	m.VisibleB = measure(bSpans)
	m.VisibleC = measure(cExecVisible) + measure(cGapVisible)
	m.VisibleA = measure(aVisible)
	m.VisibleD = measure(dVisible)

	m.Total = tr.Span()
	covered := m.VisibleB + m.VisibleC + m.VisibleA + m.VisibleD
	if m.Total > covered {
		m.Idle = m.Total - covered
	}
	if m.Tmem > 0 {
		m.Alpha = clamp01(1 - float64(m.VisibleA)/float64(m.Tmem))
	}
	if m.KernelTerm > 0 {
		m.Beta = clamp01(1 - float64(m.VisibleC)/float64(m.KernelTerm))
	}
	return m
}

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

// randomTrace records a random trace of n activities over [0, horizon):
// launches with tied starts, graph-style kernels sharing a launch, launches
// sharing a correlation id, kernels whose launch was never recorded,
// zero-length events, fault batches and overlapping copies, allocs, frees
// and syncs.
func randomTrace(rng *rand.Rand, n int, horizon int64) *trace.Tracer {
	tr := trace.New()
	var seqs []int
	at := func() sim.Time { return sim.Time(rng.Int63n(horizon)) }
	dur := func(limit int64) sim.Time {
		if rng.Intn(8) == 0 {
			return 0 // a zero-length event
		}
		return sim.Time(rng.Int63n(limit))
	}
	others := []trace.Kind{
		trace.KindMemcpyH2D, trace.KindMemcpyD2H, trace.KindMemcpyD2D,
		trace.KindAlloc, trace.KindFree, trace.KindSync, trace.KindFaultBatch,
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			k := others[rng.Intn(len(others))]
			s := at()
			tr.Record(trace.Event{Kind: k, Start: s, End: s + dur(horizon/8+1)})
			continue
		}
		seq := tr.NextSeq()
		if len(seqs) > 0 && rng.Intn(6) == 0 {
			seq = seqs[rng.Intn(len(seqs))] // a shared correlation id
		}
		seqs = append(seqs, seq)
		s := at()
		if rng.Intn(6) == 0 {
			s = sim.Time(horizon / 2) // a tied start
		}
		if rng.Intn(8) > 0 { // else an orphan kernel's id
			tr.Record(trace.Event{Kind: trace.KindLaunch, Start: s, End: s + dur(40), Seq: seq})
		}
		for k := rng.Intn(3); k > 0; k-- {
			ks := s + sim.Time(rng.Int63n(200)) - 20
			tr.Record(trace.Event{Kind: trace.KindKernel, Start: ks, End: ks + dur(300), Seq: seq})
		}
	}
	return tr
}

// Property: the edge sweep equals the span-set projection field for field
// on random traces.
func TestPropertyDecomposeMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, rng.Intn(60), 50+rng.Int63n(3000))
		if got, want := Decompose(tr), decomposeRef(tr); got != want {
			t.Fatalf("seed %d:\nDecompose    %+v\ndecomposeRef %+v", seed, got, want)
		}
	}
}

// Differential: the edge sweep equals the span-set projection on every
// suite application, in copy and UVM form, with CC off and on.
func TestDifferentialDecomposeSuite(t *testing.T) {
	for _, spec := range workloads.All() {
		for _, mode := range []workloads.Mode{workloads.CopyExecute, workloads.UVM} {
			for _, cc := range []bool{false, true} {
				tr := workloads.Execute(spec, mode, cuda.DefaultConfig(cc)).Runtime.Tracer()
				if got, want := Decompose(tr), decomposeRef(tr); got != want {
					t.Errorf("%s/%v/cc=%v:\nDecompose    %+v\ndecomposeRef %+v", spec.Name, mode, cc, got, want)
				}
			}
		}
	}
}

// BenchmarkDecomposeSuite decomposes every suite application's copy-form
// trace with CC off and on. The traces are recorded and analyzed once, so
// each op reads cached analyses and times the edge sweep.
func BenchmarkDecomposeSuite(b *testing.B) {
	var traces []*trace.Tracer
	for _, spec := range workloads.All() {
		for _, cc := range []bool{false, true} {
			tr := workloads.Execute(spec, workloads.CopyExecute, cuda.DefaultConfig(cc)).Runtime.Tracer()
			tr.Analyze()
			traces = append(traces, tr)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, tr := range traces {
			Decompose(tr)
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
