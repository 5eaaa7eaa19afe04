package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// fuzzKinds maps an op byte to the kind of event it records; launches and
// kernels come twice, so most traces match some kernels to launches.
var fuzzKinds = []trace.Kind{
	trace.KindLaunch, trace.KindLaunch, trace.KindKernel, trace.KindKernel,
	trace.KindMemcpyH2D, trace.KindMemcpyD2H, trace.KindMemcpyD2D,
	trace.KindAlloc, trace.KindFree, trace.KindSync, trace.KindFaultBatch,
}

// maxFuzzEvents keeps each trace small enough for the span-set reference.
const maxFuzzEvents = 64

// fuzzTrace records the trace ops describes, three bytes an event: its
// kind; its start and its length in steps of unit after base (4 bits each,
// so starts tie and events of length 0 occur often); and its correlation
// id, a fresh one or one reused. unit is clamped to [1, 2^58] ns and base so
// that the latest end fits an int64, which lets spans reach past MaxSpan.
func fuzzTrace(base, unit int64, ops []byte) *trace.Tracer {
	unit = min(max(unit, 1), 1<<58)
	base = min(base, math.MaxInt64-30*unit)
	tr := trace.New()
	var seqs []int
	for i := 0; i+2 < len(ops) && i < 3*maxFuzzEvents; i += 3 {
		kind := fuzzKinds[int(ops[i])%len(fuzzKinds)]
		start := sim.Time(base + int64(ops[i+1]&0x0f)*unit)
		end := start + sim.Time(int64(ops[i+1]>>4)*unit)
		e := trace.Event{Kind: kind, Start: start, End: end}
		if kind == trace.KindLaunch || kind == trace.KindKernel {
			if pick := int(ops[i+2]); pick%4 == 0 || len(seqs) == 0 {
				e.Seq = tr.NextSeq()
				seqs = append(seqs, e.Seq)
			} else {
				e.Seq = seqs[pick%len(seqs)]
			}
		}
		tr.Record(e)
	}
	return tr
}

// FuzzDecompose: on any trace, the edge sweep equals the span-set reference
// field for field, and a trace spanning MaxSpan or more panics as Decompose
// documents instead of returning a Model.
func FuzzDecompose(f *testing.F) {
	tied := []byte{
		0, 0x30, 0, 2, 0x52, 1, 4, 0x30, 0, 7, 0x03, 0, 2, 0x04, 1,
		1, 0x03, 0, 3, 0x43, 5, 5, 0x00, 0, 10, 0x21, 0, 9, 0x10, 0,
	}
	f.Add(int64(0), int64(1), tied)
	f.Add(int64(-1000), int64(7), tied)
	f.Add(int64(1)<<62, int64(1)<<40, tied)
	// Spans of 15 units just under and just over MaxSpan, and of 16 units
	// exactly at it.
	edge := []byte{0, 0x10, 0, 2, 0x1e, 1, 4, 0x0f, 0}
	f.Add(int64(0), int64(MaxSpan/15), edge)
	f.Add(int64(0), int64(MaxSpan/15+1), edge)
	f.Add(int64(-3), int64(MaxSpan/16), []byte{0, 0x10, 0, 2, 0x1f, 1})
	f.Add(int64(math.MinInt64), int64(1)<<58, edge)
	f.Add(int64(math.MaxInt64), int64(MaxSpan/16), []byte{0, 0xf0, 0, 2, 0x0f, 1})
	f.Add(int64(5), int64(3), []byte{})
	f.Fuzz(func(t *testing.T, base, unit int64, ops []byte) {
		tr := fuzzTrace(base, unit, ops)
		var lo, hi sim.Time
		if tr.Len() > 0 {
			lo, hi = sim.Time(math.MaxInt64), sim.Time(math.MinInt64)
			for e := range tr.All() {
				lo, hi = min(lo, e.Start), max(hi, e.End)
			}
		}
		if uint64(hi)-uint64(lo) >= uint64(MaxSpan) {
			if m, msg := decomposeOrPanic(tr); !strings.HasPrefix(msg, "core: trace spans") {
				t.Fatalf("span [%d, %d]: Decompose returned %+v and panicked with %q, want the span panic", lo, hi, m, msg)
			}
			return
		}
		// The first Decompose analyzes the trace, the second reads the
		// cached analysis.
		fresh, cached, want := Decompose(tr), Decompose(tr), decomposeRef(tr)
		if fresh != want || cached != want {
			t.Fatalf("Decompose    %+v\ncached       %+v\ndecomposeRef %+v", fresh, cached, want)
		}
	})
}

// The largest span Decompose accepts is one below MaxSpan; at MaxSpan, and
// where the signed span would overflow, it panics.
func TestDecomposeSpanLimit(t *testing.T) {
	record := func(start, end sim.Time) *trace.Tracer {
		tr := trace.New()
		seq := tr.NextSeq()
		tr.Record(trace.Event{Kind: trace.KindLaunch, Start: start, End: start + 5, Seq: seq})
		tr.Record(trace.Event{Kind: trace.KindKernel, Start: start + 10, End: end, Seq: seq})
		tr.Record(trace.Event{Kind: trace.KindMemcpyH2D, Start: start, End: start + 20})
		return tr
	}
	limit := sim.Time(MaxSpan)
	for _, base := range []sim.Time{0, -limit / 2, math.MaxInt64 - limit} {
		tr := record(base, base+limit-1)
		if got, want := Decompose(tr), decomposeRef(tr); got != want || got.Total != MaxSpan-1 {
			t.Fatalf("base %d: Decompose %+v, want %+v with Total MaxSpan-1", base, got, want)
		}
	}
	for _, tr := range []*trace.Tracer{record(0, limit), record(-limit, limit), record(math.MinInt64, math.MaxInt64)} {
		if m, msg := decomposeOrPanic(tr); !strings.HasPrefix(msg, "core: trace spans") {
			t.Fatalf("Decompose returned %+v and panicked with %q, want the span panic", m, msg)
		}
	}
}

// decomposeOrPanic returns Decompose's Model, or the message it panicked
// with.
func decomposeOrPanic(tr *trace.Tracer) (m Model, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return Decompose(tr), ""
}
