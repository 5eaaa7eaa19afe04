package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"hccsim/internal/sim"
)

func ev(k Kind, start, end int64, seq int) Event {
	return Event{Kind: k, Start: sim.Time(start), End: sim.Time(end), Seq: seq}
}

func TestRecordAssignsSeq(t *testing.T) {
	tr := New()
	s1 := tr.Record(Event{Kind: KindAlloc, End: 1})
	s2 := tr.Record(Event{Kind: KindAlloc, End: 1})
	if s1 == s2 || s1 == 0 {
		t.Fatalf("seq not unique: %d %d", s1, s2)
	}
	if tr.Len() != 2 {
		t.Fatalf("events = %d", tr.Len())
	}
}

func TestRecordRejectsInvertedEvent(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for end < start")
		}
	}()
	tr.Record(Event{Kind: KindKernel, Start: 10, End: 5})
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if seq := tr.NextSeq(); seq != 0 {
		t.Fatalf("nil NextSeq = %d, want 0", seq)
	}
	if seq := tr.Record(Event{Kind: KindKernel, Start: 1, End: 2, Seq: 7}); seq != 0 {
		t.Fatalf("nil Record = %d, want 0", seq)
	}
	// Nothing is stored: a nil Record appends nowhere and allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Kind: KindMemcpyH2D, Name: "memcpy", Start: 1, End: 2, Bytes: 4096})
	}); n != 0 {
		t.Fatalf("nil Record allocates %.0f times per call, want 0", n)
	}
}

func TestNilTracerStillRejectsInvertedEvent(t *testing.T) {
	var tr *Tracer
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for end < start on a nil tracer")
		}
	}()
	tr.Record(Event{Kind: KindKernel, Start: 10, End: 5})
}

func TestAnalyzeKLOKETKQT(t *testing.T) {
	tr := New()
	// Launch 1: [0,10], kernel 1: [15,45] -> KQT 5, KET 30.
	s1 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 0, 10, s1))
	tr.Record(ev(KindKernel, 15, 45, s1))
	// Launch 2: [20,28] -> LQT = 20-10 = 10; kernel 2: [45,50] -> KQT 17.
	s2 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 20, 28, s2))
	tr.Record(ev(KindKernel, 45, 50, s2))

	m := tr.Analyze()
	if m.KLO != 18 {
		t.Fatalf("KLO = %v, want 18ns", m.KLO)
	}
	if m.KET != 35 {
		t.Fatalf("KET = %v, want 35ns", m.KET)
	}
	if m.KQT != 5+17 {
		t.Fatalf("KQT = %v, want 22ns", m.KQT)
	}
	if m.LQT != 10 {
		t.Fatalf("LQT = %v, want 10ns", m.LQT)
	}
	if m.Launches != 2 || m.Kernels != 2 {
		t.Fatalf("counts: %d launches %d kernels", m.Launches, m.Kernels)
	}
}

func TestLQTExcludesCoveredGaps(t *testing.T) {
	tr := New()
	s1 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 0, 10, s1))
	// A memcpy covers [10, 30] of the gap.
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 10, End: 30, Bytes: 100})
	s2 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 40, 45, s2))
	m := tr.Analyze()
	// Gap is [10,40] = 30, of which 20 covered by the copy -> LQT 10.
	if m.LQT != 10 {
		t.Fatalf("LQT = %v, want 10ns", m.LQT)
	}
}

func TestCopyAllocAggregation(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 0, End: 5, Bytes: 10})
	tr.Record(Event{Kind: KindMemcpyD2H, Start: 5, End: 15, Bytes: 10})
	tr.Record(Event{Kind: KindMemcpyD2D, Start: 15, End: 18, Bytes: 10, Managed: true})
	tr.Record(Event{Kind: KindAlloc, Start: 20, End: 30})
	tr.Record(Event{Kind: KindFree, Start: 30, End: 50})
	tr.Record(Event{Kind: KindSync, Start: 50, End: 51})
	m := tr.Analyze()
	if m.CopyH2D != 5 || m.CopyD2H != 10 || m.CopyD2D != 3 {
		t.Fatalf("copy times %v/%v/%v", m.CopyH2D, m.CopyD2H, m.CopyD2D)
	}
	if m.ManagedCopy != 3 {
		t.Fatalf("managed copy %v, want 3", m.ManagedCopy)
	}
	if m.AllocTime != 10 || m.FreeTime != 20 || m.SyncTime != 1 {
		t.Fatalf("alloc/free/sync %v/%v/%v", m.AllocTime, m.FreeTime, m.SyncTime)
	}
}

func TestCDFShapeAndTrim(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	xs, ps := CDF(samples, 0)
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ps[i] <= ps[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if ps[len(ps)-1] != 1.0 {
		t.Fatalf("final p = %f", ps[len(ps)-1])
	}
	xs2, _ := CDF(samples, 2)
	if len(xs2) != 3 || xs2[len(xs2)-1] != 3 {
		t.Fatalf("trim failed: %v", xs2)
	}
	if xs3, ps3 := CDF(nil, 0); xs3 != nil || ps3 != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if m := Mean([]time.Duration{10, 20, 30}); m != 20 {
		t.Fatalf("mean = %v", m)
	}
}

func TestSpan(t *testing.T) {
	tr := New()
	if lo, hi := tr.Bounds(); tr.Span() != 0 || lo != 0 || hi != 0 {
		t.Fatalf("empty: span %v, bounds [%v, %v]; want zeros", tr.Span(), lo, hi)
	}
	tr.Record(ev(KindKernel, 10, 20, 1))
	tr.Record(ev(KindKernel, 5, 12, 2))
	if tr.Span() != 15 {
		t.Fatalf("span = %v, want 15ns", tr.Span())
	}
	if lo, hi := tr.Bounds(); lo != 5 || hi != 20 {
		t.Fatalf("bounds = [%v, %v], want [5, 20]", lo, hi)
	}
}

func TestOfKind(t *testing.T) {
	tr := New()
	tr.Record(ev(KindKernel, 0, 1, 1))
	tr.Record(ev(KindLaunch, 0, 1, 2))
	tr.Record(ev(KindKernel, 1, 2, 3))
	if got := len(tr.OfKind(KindKernel)); got != 2 {
		t.Fatalf("OfKind(Kernel) = %d", got)
	}
}

// Property: all analyzer outputs are non-negative and KET equals the sum of
// kernel durations for arbitrary well-formed traces.
func TestPropertyAnalyzeNonNegative(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var wantKET time.Duration
		cursor := int64(0)
		for i := 0; i < int(n%40)+1; i++ {
			seq := tr.NextSeq()
			lStart := cursor + int64(rng.Intn(100))
			lEnd := lStart + int64(rng.Intn(50))
			tr.Record(ev(KindLaunch, lStart, lEnd, seq))
			kStart := lEnd + int64(rng.Intn(100))
			kEnd := kStart + int64(rng.Intn(1000))
			tr.Record(ev(KindKernel, kStart, kEnd, seq))
			wantKET += time.Duration(kEnd - kStart)
			cursor = lEnd
		}
		m := tr.Analyze()
		return m.KET == wantKET && m.KLO >= 0 && m.LQT >= 0 && m.KQT >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceLQT is the reference LQT: for every gap between consecutive
// launches, a full scan of all host-side API events.
func bruteForceLQT(events []Event) time.Duration {
	var launches, busy []Event
	for _, e := range events {
		switch e.Kind {
		case KindKernel, KindFaultBatch:
		case KindLaunch:
			launches = append(launches, e)
			busy = append(busy, e)
		default:
			busy = append(busy, e)
		}
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i].Start < launches[j].Start })
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	var lqt time.Duration
	for i := 1; i < len(launches); i++ {
		start, end := launches[i-1].End, launches[i].Start
		if end <= start {
			continue
		}
		var covered time.Duration
		cursor := start
		for _, e := range busy {
			if e.Seq == launches[i].Seq || e.Seq == launches[i-1].Seq {
				continue
			}
			if e.End <= cursor || e.Start >= end {
				continue
			}
			s, f := max(e.Start, cursor), min(e.End, end)
			if f > s {
				covered += f.Sub(s)
				cursor = f
			}
		}
		if gap := end.Sub(start) - covered; gap > 0 {
			lqt += gap
		}
	}
	return lqt
}

// Property: the indexed LQT scan in Analyze matches the brute-force
// reference on random traces with overlapping launches, overlapping API
// calls, zero-length events and calls spanning many launch gaps.
func TestPropertyLQTMatchesBruteForce(t *testing.T) {
	kinds := []Kind{KindAlloc, KindFree, KindMemcpyH2D, KindMemcpyD2H, KindMemcpyD2D, KindSync, KindKernel, KindFaultBatch}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		horizon := int64(50 + rng.Intn(5000))
		for i, n := 0, rng.Intn(120); i < n; i++ {
			start := rng.Int63n(horizon)
			dur := rng.Int63n(40)
			if rng.Intn(15) == 0 {
				dur = rng.Int63n(horizon) // long-spanning call
			}
			if rng.Intn(3) == 0 {
				seq := tr.NextSeq()
				tr.Record(ev(KindLaunch, start, start+dur, seq))
				tr.Record(ev(KindKernel, start+dur, start+dur+rng.Int63n(100), seq))
				continue
			}
			tr.Record(ev(kinds[rng.Intn(len(kinds))], start, start+dur, 0))
		}
		if got, want := tr.Analyze().LQT, bruteForceLQT(slices.Collect(tr.All())); got != want {
			t.Fatalf("seed %d: LQT = %v, brute force %v", seed, got, want)
		}
	}
}

// mapKernelWaits is the reference for KernelWaits: launches sorted by
// start into a map by correlation id, the last one written winning, and
// each kernel matched through it, giving [launch end, kernel start] when
// the kernel started later.
func mapKernelWaits(events []Event) [][2]sim.Time {
	var launches []Event
	for _, e := range events {
		if e.Kind == KindLaunch {
			launches = append(launches, e)
		}
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i].Start < launches[j].Start })
	bySeq := make(map[int]Event, len(launches))
	for _, l := range launches {
		bySeq[l.Seq] = l
	}
	var waits [][2]sim.Time
	for _, e := range events {
		if l, ok := bySeq[e.Seq]; ok && e.Kind == KindKernel && e.Start > l.End {
			waits = append(waits, [2]sim.Time{l.End, e.Start})
		}
	}
	return waits
}

// checkKernelWaits reports where KernelWaits or the analyzed KQT
// disagrees with the map reference over the recorded events.
func checkKernelWaits(tr *Tracer, events []Event) error {
	want := mapKernelWaits(events)
	var got [][2]sim.Time
	for launchEnd, kernelStart := range tr.KernelWaits() {
		got = append(got, [2]sim.Time{launchEnd, kernelStart})
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("KernelWaits = %v, map reference %v", got, want)
	}
	var kqt time.Duration
	for _, w := range want {
		kqt += w[1].Sub(w[0])
	}
	if m := tr.Analyze(); m.KQT != kqt {
		return fmt.Errorf("KQT = %v, map reference %v", m.KQT, kqt)
	}
	return nil
}

// Property: matching kernels to launches by binary search over compact
// records yields the map reference's waits, and sums them to its KQT, on
// random traces with graph-style kernels sharing one launch, launches
// sharing a correlation id (some at the same start), and kernels whose
// launch was never recorded.
func TestPropertyKQTMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var seqs []int
		for i, n := 0, rng.Intn(80); i < n; i++ {
			start := rng.Int63n(2000)
			end := start + rng.Int63n(40)
			seq := tr.NextSeq()
			if len(seqs) > 0 && rng.Intn(5) == 0 {
				seq = seqs[rng.Intn(len(seqs))] // a shared correlation id
				if rng.Intn(2) == 0 {
					start, end = 500, 520 // and a tied start
				}
			}
			seqs = append(seqs, seq)
			if rng.Intn(6) > 0 {
				tr.Record(ev(KindLaunch, start, end, seq))
			}
			for k := rng.Intn(4); k > 0; k-- {
				ks := rng.Int63n(2500)
				tr.Record(ev(KindKernel, ks, ks+rng.Int63n(50), seq))
			}
		}
		if err := checkKernelWaits(tr, slices.Collect(tr.All())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestKernelWaitsNilTracerAndEarlyStop(t *testing.T) {
	var nilTr *Tracer
	for range nilTr.KernelWaits() {
		t.Fatal("nil tracer yielded a wait")
	}
	tr := New()
	for i := int64(0); i < 3; i++ {
		seq := tr.NextSeq()
		tr.Record(ev(KindLaunch, 10*i, 10*i+2, seq))
		tr.Record(ev(KindKernel, 10*i+5, 10*i+9, seq))
	}
	n := 0
	for range tr.KernelWaits() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("stopped iteration yielded %d waits", n)
	}
}

// Property: CDF is a valid distribution function for any sample set.
func TestPropertyCDFValid(t *testing.T) {
	f := func(raw []uint16) bool {
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r)
		}
		xs, ps := CDF(samples, 0)
		if len(xs) != len(samples) || len(ps) != len(xs) {
			return len(samples) == 0
		}
		for i := range xs {
			if i > 0 && xs[i] < xs[i-1] {
				return false
			}
			if ps[i] <= 0 || ps[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New()
	seq := tr.NextSeq()
	tr.Record(Event{Kind: KindAlloc, Start: 0, End: 100})
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 100, End: 400, Bytes: 1})
	tr.Record(Event{Kind: KindLaunch, Start: 400, End: 420, Seq: seq})
	tr.Record(Event{Kind: KindKernel, Start: 430, End: 900, Seq: seq})
	tr.Record(Event{Kind: KindFree, Start: 900, End: 1000})

	var buf bytes.Buffer
	if err := tr.Gantt(&buf, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, lane := range []string{"alloc", "copy", "launch", "kernel", "free"} {
		if !strings.Contains(out, lane) {
			t.Fatalf("gantt missing %q lane:\n%s", lane, out)
		}
	}
	if strings.Contains(out, "fault") {
		t.Fatal("gantt shows unused fault lane")
	}
	// The kernel lane's '#' glyphs sit after the copy lane's '='.
	kLine, cLine := "", ""
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "kernel") {
			kLine = ln
		}
		if strings.HasPrefix(ln, "copy") {
			cLine = ln
		}
	}
	if strings.Index(kLine, "#") <= strings.Index(cLine, "=") {
		t.Fatalf("kernel marks not after copy marks:\n%s", out)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

func TestUtilization(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 0, End: 50, Bytes: 1})
	tr.Record(Event{Kind: KindMemcpyD2H, Start: 25, End: 75, Bytes: 1}) // overlaps: union 0-75
	tr.Record(Event{Kind: KindKernel, Start: 50, End: 100})
	u := tr.Utilize()
	if u.Copy < 0.74 || u.Copy > 0.76 {
		t.Fatalf("copy utilization %.2f, want 0.75", u.Copy)
	}
	if u.Kernel != 0.5 {
		t.Fatalf("kernel utilization %.2f, want 0.50", u.Kernel)
	}
	if u.Fault != 0 || u.Mgmt != 0 {
		t.Fatalf("phantom utilization: %+v", u)
	}
	if (New()).Utilize() != (Utilization{}) {
		t.Fatal("empty trace utilization not zero")
	}
}

// mixedTrace records n launch/kernel pairs with a copy and a sync between
// them into tr, so every Metrics field the analysis fills is nonzero.
func mixedTrace(tr *Tracer, from, n int) {
	for i := from; i < from+n; i++ {
		at := int64(i) * 1000
		seq := tr.NextSeq()
		tr.Record(ev(KindLaunch, at, at+40, seq))
		tr.Record(ev(KindMemcpyH2D, at+100, at+300, 0))
		tr.Record(ev(KindKernel, at+320, at+700, seq))
		tr.Record(ev(KindSync, at+310, at+710, 0))
	}
}

func TestAnalyzeRepeatAllocatesNothing(t *testing.T) {
	tr := New()
	mixedTrace(tr, 0, 50)
	first := tr.Analyze()
	if allocs := testing.AllocsPerRun(20, func() { tr.Analyze() }); allocs != 0 {
		t.Fatalf("repeated Analyze allocates %.0f times, want 0", allocs)
	}
	if again := tr.Analyze(); !reflect.DeepEqual(again, first) {
		t.Fatalf("cached analysis differs:\n%+v\n%+v", again, first)
	}
}

// Recording after an analysis invalidates it: the next Analyze sees every
// event, exactly as a tracer analyzed only at the end does.
func TestAnalyzeAfterRecordMatchesFresh(t *testing.T) {
	tr := New()
	mixedTrace(tr, 0, 10)
	early := tr.Analyze()
	mixedTrace(tr, 10, 10)
	fresh := New()
	mixedTrace(fresh, 0, 20)
	got, want := tr.Analyze(), fresh.Analyze()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze after Record:\n%+v\nfresh tracer:\n%+v", got, want)
	}
	if early.Launches != 10 || got.Launches != 20 {
		t.Fatalf("launches %d then %d, want 10 then 20", early.Launches, got.Launches)
	}
}

// A zero-value Tracer analyzes as empty and, once loaded with events,
// exactly as a tracer made by New.
func TestAnalyzeZeroValueAndLoaded(t *testing.T) {
	var zero Tracer
	if m := zero.Analyze(); !reflect.DeepEqual(m, Metrics{}) {
		t.Fatalf("empty zero-value tracer analyzes to %+v", m)
	}
	mixedTrace(&zero, 0, 5)
	ref := New()
	mixedTrace(ref, 0, 5)
	want := ref.Analyze()
	if got := zero.Analyze(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-value tracer:\n%+v\nNew tracer:\n%+v", got, want)
	}
}

// Figure workers analyze and read shared finished runs concurrently; run
// under -race, this holds the cache and the log to that contract.
func TestAnalyzeConcurrent(t *testing.T) {
	tr := New()
	mixedTrace(tr, 0, 600)
	ref := New()
	mixedTrace(ref, 0, 600)
	want, wantEvents := ref.Analyze(), slices.Collect(ref.All())
	got := make([]Metrics, 8)
	gotEvents := make([][]Event, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = tr.Analyze()
				gotEvents[i] = slices.Collect(tr.All())
			} else {
				gotEvents[i] = slices.Collect(tr.All())
				got[i] = tr.Analyze()
			}
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("goroutine %d: %+v, want %+v", i, m, want)
		}
		if !slices.Equal(gotEvents[i], wantEvents) {
			t.Fatalf("goroutine %d: All yields %d events, want %d, or differs in content", i, len(gotEvents[i]), len(wantEvents))
		}
	}
}

// FuzzTraceLog decodes the input into a sequence of recorder operations
// and holds both views of the log to a reference. An operation is one of
//
//   - a complete event, recorded with Record;
//   - Begin of an activity both views show, optionally with a correlation
//     id reserved with NextSeq, that a later operation closes with
//     EndEvent;
//   - Begin of an obs-only span, that a later operation closes with End;
//   - the end of one open record, chosen by the input, at a clock that the
//     Begin and End operations advance, so activities overlap and end in
//     another order than they began.
//
// The Nsight view must equal a reference tracer that holds events only,
// each recorded with Record when it completes and with the same ids
// reserved by NextSeq, and the analysis must match the reference LQT and
// KQT. The begin
// order view the obs exports read must hold every record at the index of
// its Begin with its interval, its end -1 while open, and Open must count
// the records not ended.
func FuzzTraceLog(f *testing.F) {
	f.Add([]byte{5, 0, 0, 10, 4, 1, 0, 6, 0, 12, 20, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 255, 7, 3, 9, 0, 3, 129, 1, 4}, 40))
	f.Add([]byte{
		15, 1, 0, 0, 5, 1, 0, // begin an activity with a reserved id
		20, 129, 0, 0, 3, 8, 10, // begin an obs-only span
		10, 0, 0, 0, 7, 0, 0, // begin another activity
		27, 0, 0, 0, 2, 9, 17, // end one
		5, 0, 0, 10, 4, 1, 0, // a complete launch
		28, 1, 0, 0, 4, 3, 1, // end another
		29, 0, 0, 0, 1, 2, 0, // and the last
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 7 // bytes per operation
		// Past the first few blocks a longer log adds nothing but time to
		// the quadratic references and to minimizing.
		data = data[:min(len(data), 8*firstBlock*size)]
		decode := func(d []byte) Event {
			e := Event{
				Kind:    Kind(d[0] % byte(len(kindNames))),
				Stream:  int(int8(d[1])),
				Start:   sim.Time(uint16(d[2])<<8 | uint16(d[3])),
				Bytes:   int64(d[5]) << (d[5] % 56),
				Managed: d[6]&1 != 0,
				Seq:     int(d[6] >> 4), // 0: a fresh id; else shared
			}
			e.End = e.Start + sim.Time(d[4])
			if n := d[6] >> 1 & 7; n > 0 {
				e.Name = fmt.Sprintf("n%d", n)
			}
			return e
		}
		type open struct {
			i     int32
			event bool // closed with EndEvent
			seq   int  // reserved correlation id, 0 for none
		}
		tr, ref := New(), New()
		var (
			want      []Event
			intervals [][2]sim.Time // by record index, the begin order
			pending   []open
			now       sim.Time
		)
		begin := func(d []byte, event bool) open {
			now += sim.Time(d[4])
			intervals = append(intervals, [2]sim.Time{now, -1})
			return open{i: tr.Begin(now), event: event}
		}
		for ; len(data) >= size; data = data[size:] {
			d := data[:size]
			switch d[0] / byte(len(kindNames)) % 4 {
			case 0: // a complete event
				e := decode(d)
				got, seq := tr.Record(e), ref.Record(e)
				if got != seq {
					t.Fatalf("Record returned seq %d, reference %d", got, seq)
				}
				e.Seq = seq
				want = append(want, e)
				intervals = append(intervals, [2]sim.Time{e.Start, e.End})
			case 1: // Begin of an activity both views show
				o := begin(d, true)
				if d[5]&1 != 0 {
					got, seq := tr.NextSeq(), ref.NextSeq()
					if got != seq {
						t.Fatalf("NextSeq = %d, reference %d", got, seq)
					}
					o.seq = seq
				}
				pending = append(pending, o)
			case 2: // Begin of an obs-only span
				pending = append(pending, begin(d, false))
			case 3: // the end of an open record
				if len(pending) == 0 {
					continue
				}
				now += sim.Time(d[4])
				k := int(d[1]) % len(pending)
				o := pending[k]
				pending = slices.Delete(pending, k, k+1)
				intervals[o.i][1] = now
				if !o.event {
					tr.End(o.i, now)
					continue
				}
				e := decode(d)
				e.Start = intervals[o.i][0]
				e.End = now
				if o.seq != 0 {
					e.Seq = o.seq
				}
				got, seq := tr.EndEvent(o.i, now, e), ref.Record(e)
				if got != seq {
					t.Fatalf("EndEvent returned seq %d, reference Record %d", got, seq)
				}
				e.Seq = seq
				want = append(want, e)
			}
		}
		if got, ref := slices.Collect(tr.All()), slices.Collect(ref.All()); !slices.Equal(got, ref) || !slices.Equal(got, want) {
			t.Fatalf("All yields %v, reference %v, want %v", got, ref, want)
		}
		if tr.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
		}
		for i, w := range intervals {
			if start, end := tr.Interval(int32(i)); start != w[0] || end != w[1] {
				t.Fatalf("record %d spans [%v,%v], want [%v,%v]", i, start, end, w[0], w[1])
			}
		}
		if tr.Open() != len(pending) {
			t.Fatalf("Open = %d, want %d", tr.Open(), len(pending))
		}
		m := tr.Analyze()
		if lqt := bruteForceLQT(want); m.LQT != lqt {
			t.Fatalf("LQT = %v, brute force %v", m.LQT, lqt)
		}
		if err := checkKernelWaits(tr, want); err != nil {
			t.Fatal(err)
		}
	})
}

// logEvent is the i-th event of a trace that exercises every field of the
// compact log: every Kind, stream -1, managed copies, payloads past 32 bits
// and a few hundred distinct names (some empty). Pairs of events share a
// correlation id.
func logEvent(i int) Event {
	e := Event{
		Kind:    Kind(i % len(kindNames)),
		Stream:  i%5 - 1,
		Start:   sim.Time(i * 10),
		End:     sim.Time(i*10 + i%7),
		Bytes:   int64(i) << 33,
		Managed: i%3 == 0,
		Seq:     i / 2,
	}
	if i%4 != 0 {
		e.Name = fmt.Sprintf("k%d", i%301)
	}
	return e
}

// recordN records logEvents from..from+n-1 into tr and returns them as
// recorded, each with the Seq that Record returned.
func recordN(tr *Tracer, from, n int) []Event {
	var want []Event
	for i := from; i < from+n; i++ {
		e := logEvent(i)
		e.Seq = tr.Record(e)
		want = append(want, e)
	}
	return want
}

// All yields exactly what was recorded, in record order, for lengths on
// both sides of every block boundary up to several full blocks.
func TestAllYieldsRecordedInOrder(t *testing.T) {
	lens := []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 4*blockLen + 3}
	for edge, size := 0, firstBlock; edge < 3*blockLen; size = min(2*size, blockLen) {
		edge += size
		lens = append(lens, edge-1, edge, edge+1)
	}
	for _, n := range lens {
		tr := New()
		want := recordN(tr, 0, n)
		got := slices.Collect(tr.All())
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: All yields %d events, want %d, or differs in content", n, len(got), len(want))
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
	}
}

// Recorded events are never moved: a record keeps its address however many
// more are recorded after it, and only the first blocks are short.
func TestBlocksNeverMove(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 48 {
		t.Fatalf("record is %d bytes, want 48", size)
	}
	tr := New()
	recordN(tr, 0, 1)
	first := &tr.blocks[0][0]
	recordN(tr, 1, 5*blockLen)
	if &tr.blocks[0][0] != first {
		t.Fatal("the first record moved")
	}
	for i, b := range tr.blocks {
		if want := min(firstBlock<<i, blockLen); cap(b) != want {
			t.Fatalf("block %d holds %d records, want %d", i, cap(b), want)
		}
	}
}

func TestNilTracerReadsEmpty(t *testing.T) {
	var tr *Tracer
	if tr.Len() != 0 {
		t.Fatalf("nil Len = %d", tr.Len())
	}
	for e := range tr.All() {
		t.Fatalf("nil All yields %+v", e)
	}
	if m := tr.Analyze(); !reflect.DeepEqual(m, Metrics{}) {
		t.Fatalf("nil Analyze = %+v", m)
	}
	if tr.Span() != 0 {
		t.Fatalf("nil Span = %v", tr.Span())
	}
	if lo, hi := tr.Bounds(); lo != 0 || hi != 0 {
		t.Fatalf("nil Bounds = [%v, %v]", lo, hi)
	}
}

// An analysis cached while the last block is full is recomputed after a
// Record that starts the next block.
func TestAnalyzeRecomputedAcrossBlockBoundary(t *testing.T) {
	tr := New()
	n := 0 // mixedTrace steps, four events each
	for full := false; !full; n++ {
		mixedTrace(tr, n, 1)
		last := tr.blocks[len(tr.blocks)-1]
		full = len(tr.blocks) >= 3 && len(last) == cap(last)
	}
	blocks := len(tr.blocks)
	before := tr.Analyze()
	mixedTrace(tr, n, 1)
	if len(tr.blocks) != blocks+1 {
		t.Fatalf("Record did not start a new block: %d blocks, want %d", len(tr.blocks), blocks+1)
	}
	fresh := New()
	mixedTrace(fresh, 0, n+1)
	got, want := tr.Analyze(), fresh.Analyze()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze after crossing a block:\n%+v\nfresh tracer:\n%+v", got, want)
	}
	if got.Launches != before.Launches+1 {
		t.Fatalf("launches %d then %d, want one more", before.Launches, got.Launches)
	}
}

// Recording into a block that has room allocates nothing, names included.
func TestRecordSteadyStateAllocatesNothing(t *testing.T) {
	tr := New()
	evs := recordN(tr, 0, blockLen+1) // past the short blocks; every name interned
	i := 0
	if n := testing.AllocsPerRun(blockLen/2, func() {
		tr.Record(evs[i])
		i++
	}); n != 0 {
		t.Fatalf("Record allocates %.1f times per call within a block, want 0", n)
	}
	if len(tr.names) != 301+1 { // logEvent's names and ""
		t.Fatalf("name table holds %d names, want each of 301 once plus the empty name", len(tr.names))
	}
}
