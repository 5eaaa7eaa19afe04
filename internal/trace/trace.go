// Package trace is the simulator's one recorder of timed activities (the
// spans of package obs and the Nsight-style events: allocations, copies,
// launches, kernels, faults, synchronization) and the analyzer that
// extracts the paper's metrics from the events — Kernel Launch Overhead
// (KLO), Launch Queuing Time (LQT), Kernel Queuing Time (KQT), and Kernel
// Execution Time (KET) — exactly as defined in Section V of the paper.
//
// A record is opened with Begin and closed with End, or with EndEvent when
// it is an event; Record appends a complete event. Records are kept in
// begin order, the order obs exports spans in, and the events are also
// listed in completion order, the Nsight order all readers see.
package trace

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"hccsim/internal/sim"
)

// Kind classifies a trace event.
type Kind int

// Event kinds.
const (
	KindAlloc Kind = iota
	KindFree
	KindMemcpyH2D
	KindMemcpyD2H
	KindMemcpyD2D
	KindLaunch
	KindKernel
	KindSync
	KindFaultBatch
)

var kindNames = [...]string{
	"Alloc", "Free", "MemcpyH2D", "MemcpyD2H", "MemcpyD2D",
	"Launch", "Kernel", "Sync", "FaultBatch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timed activity on the host or device timeline.
type Event struct {
	Kind    Kind
	Name    string // kernel name, API name, buffer label
	Stream  int    // stream id; 0 is the default stream, -1 host-only
	Start   sim.Time
	End     sim.Time
	Bytes   int64 // payload for copies/allocs/faults
	Managed bool  // true when the copy/fault went through UVM paging
	Seq     int   // correlation id: kernel events carry their launch's Seq
}

// Duration returns the event's extent.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Tracer is the recorder. Recording is not safe for concurrent use; the
// simulator is single-threaded by construction. Once recording has stopped,
// any number of goroutines may read the trace (All, Len, Analyze)
// concurrently (figure workers share finished runs): the analysis is
// computed once and cached until the next event completes, so callers must
// treat the returned KLOs and KETs as read-only. A nil *Tracer records
// nothing: Record and NextSeq return 0.
//
// The log is a list of blocks of compact, pointer-free records: blocks
// double from firstBlock records up to blockLen, and every later block
// holds blockLen. A record is never moved, so recording never copies the
// log, and the garbage collector never scans it. Event names are interned
// into a per-tracer table; each record holds an index into it.
type Tracer struct {
	blocks [][]record
	n      int // records across all blocks
	seq    int // correlation ids handed out so far

	first, last int32 // 1 + index of the first and last completed event; 0 = none
	events      int   // completed events

	names   []string // interned names; index 0 is ""
	nameIdx map[string]uint32

	mu        sync.Mutex
	analyzed  *Metrics // analysis of the first analyzedN events, nil before the first
	analyzedN int
}

// record is one activity: 48 bytes with no pointers.
type record struct {
	start, end sim.Time // end is -1 while the record is open
	bytes      int64
	seq        int    // an event's correlation id
	stream     int32  // an event's stream
	name       uint32 // an event's name, an index into Tracer.names
	next       int32  // 1 + index of the next completed event, 0 = none yet
	kind       uint8
	managed    bool
}

// Block sizes of the log: the first block holds firstBlock records, each
// next one twice as many, up to blockLen; the growBlocks blocks up to that
// hold doubled records.
const (
	firstBlock = 16
	blockLen   = 1024
	growBlocks = 7 // 16, 32, ..., 1024
	doubled    = firstBlock * (1<<growBlocks - 1)
)

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record appends a complete event and returns its sequence number. An
// event that ends before it starts panics, even on a nil tracer: it
// indicates a broken model, and silently storing it would corrupt every
// downstream decomposition. So does an event EndEvent cannot hold.
func (t *Tracer) Record(e Event) int {
	if e.End < e.Start {
		panic(fmt.Sprintf("trace: event %s ends before it starts (%v < %v)", e.Kind, e.End, e.Start))
	}
	if t == nil {
		return 0
	}
	return t.EndEvent(t.Begin(e.Start), e.End, e)
}

// Begin opens a record at the given time and returns its index, which End,
// EndEvent and Interval take.
func (t *Tracer) Begin(at sim.Time) int32 {
	b := t.tail()
	*b = append(*b, record{start: at, end: -1})
	t.n++
	return int32(t.n - 1)
}

// End closes record i at the given time.
func (t *Tracer) End(i int32, at sim.Time) { t.at(i).end = at }

// Interval returns record i's start and end; end is -1 while it is open.
func (t *Tracer) Interval(i int32) (start, end sim.Time) { return t.at(i).start, t.at(i).end }

// EndEvent closes record i at the given time as the Nsight event e, whose
// Start and End are the record's own, and returns its sequence number: the
// event's Seq, or a fresh one when that is 0. The event joins the Nsight
// view here, so the view lists events in completion order. It panics on a
// Kind outside 0..255 or a Stream outside int32, which the compact log
// cannot hold.
func (t *Tracer) EndEvent(i int32, at sim.Time, e Event) int {
	if uint(e.Kind) > math.MaxUint8 || int(int32(e.Stream)) != e.Stream {
		panic(fmt.Sprintf("trace: event %s on stream %d does not fit the log", e.Kind, e.Stream))
	}
	t.seq++
	if e.Seq == 0 {
		e.Seq = t.seq
	}
	r := t.at(i)
	r.end, r.bytes, r.seq, r.stream = at, e.Bytes, e.Seq, int32(e.Stream)
	r.name, r.kind, r.managed = t.intern(e.Name), uint8(e.Kind), e.Managed
	if t.last != 0 {
		t.at(t.last - 1).next = i + 1
	} else {
		t.first = i + 1
	}
	t.last = i + 1
	t.events++
	return e.Seq
}

// Open counts the records begun and not yet ended. A drained run ends
// everything it begins, so Open is 0 after every complete run.
func (t *Tracer) Open() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.blocks {
		for i := range b {
			if b[i].end < 0 {
				n++
			}
		}
	}
	return n
}

// tail returns the block the next record goes into, starting a new one
// when the last is full. Appending to the result never reallocates it.
func (t *Tracer) tail() *[]record {
	if k := len(t.blocks); k > 0 && len(t.blocks[k-1]) < cap(t.blocks[k-1]) {
		return &t.blocks[k-1]
	}
	size := firstBlock
	if k := len(t.blocks); k > 0 {
		size = min(2*cap(t.blocks[k-1]), blockLen)
	}
	t.blocks = append(t.blocks, make([]record, 0, size))
	return &t.blocks[len(t.blocks)-1]
}

// at returns the record at index i.
func (t *Tracer) at(i int32) *record {
	if i < doubled {
		b := bits.Len32(uint32(i)/firstBlock+1) - 1
		return &t.blocks[b][int(i)-firstBlock*(1<<b-1)]
	}
	i -= doubled
	return &t.blocks[growBlocks+i/blockLen][i%blockLen]
}

// intern returns the index of name in the tracer's name table, adding it
// on first use.
func (t *Tracer) intern(name string) uint32 {
	if name == "" {
		return 0
	}
	if i, ok := t.nameIdx[name]; ok {
		return i
	}
	if t.nameIdx == nil {
		t.nameIdx = make(map[string]uint32)
		t.names = []string{""}
	}
	i := uint32(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = i
	return i
}

// eventRecords iterates the completed events in completion order.
func (t *Tracer) eventRecords() iter.Seq[*record] {
	return func(yield func(*record) bool) {
		for i := t.first; i != 0; {
			r := t.at(i - 1)
			if !yield(r) {
				return
			}
			i = r.next
		}
	}
}

// event rebuilds the Event a record holds.
func (t *Tracer) event(r *record) Event {
	e := Event{
		Kind: Kind(r.kind), Stream: int(r.stream),
		Start: r.start, End: r.end, Bytes: r.bytes, Managed: r.managed, Seq: r.seq,
	}
	if r.name != 0 {
		e.Name = t.names[r.name]
	}
	return e
}

// NextSeq reserves a correlation id without recording, so a launch and its
// kernel can share one.
func (t *Tracer) NextSeq() int {
	if t == nil {
		return 0
	}
	t.seq++
	return t.seq
}

// Len returns the number of recorded events; 0 on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.events
}

// All iterates the recorded events in completion order. It yields nothing
// on a nil tracer.
func (t *Tracer) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		if t == nil {
			return
		}
		for r := range t.eventRecords() {
			if !yield(t.event(r)) {
				return
			}
		}
	}
}

// OfKind returns events of kind k, in record order.
func (t *Tracer) OfKind(k Kind) []Event {
	var out []Event
	for e := range t.All() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Span returns the wall-clock extent of the trace (first start to last end).
func (t *Tracer) Span() time.Duration {
	lo, hi := t.Bounds()
	return hi.Sub(lo)
}

// Bounds returns the earliest start and latest end of the trace, or two
// zeros for an empty or nil one.
func (t *Tracer) Bounds() (lo, hi sim.Time) {
	if t.Len() == 0 {
		return 0, 0
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for r := range t.eventRecords() {
		lo, hi = min(lo, r.start), max(hi, r.end)
	}
	return lo, hi
}

// Metrics are the per-application aggregates of the paper's Section V model
// inputs, extracted from a trace.
type Metrics struct {
	// KLO is the summed duration of launch API calls.
	KLO time.Duration
	// LQT is the summed waiting time between consecutive launches: for each
	// launch after the first, max(0, start_i - end_{i-1}) minus any time the
	// host verifiably spent in other traced API calls in that gap.
	LQT time.Duration
	// KQT is the summed time kernels waited between launch completion and
	// execution start.
	KQT time.Duration
	// KET is the summed kernel execution time.
	KET time.Duration
	// CopyTime per direction, and the managed (UVM encrypted paging) share.
	CopyH2D, CopyD2H, CopyD2D time.Duration
	ManagedCopy               time.Duration
	// AllocTime and FreeTime cover all memory-management APIs.
	AllocTime, FreeTime time.Duration
	SyncTime            time.Duration
	Launches            int
	Kernels             int
	// KLOs and KETs are the per-event samples, for CDFs (Fig 11).
	KLOs, KETs []time.Duration
}

// Analyze extracts Metrics from the trace. The result is cached while no
// event is recorded, so repeated calls cost nothing; its KLOs and KETs are
// shared between calls and must not be modified. A nil tracer analyzes as
// empty.
func (t *Tracer) Analyze() Metrics { return t.AnalyzeWaits(nil) }

// AnalyzeWaits is Analyze that also calls wait, when it is not nil, with
// each pair KernelWaits yields, in the same order. The launches are sorted
// once: after a fresh analysis wait reads the launches its KQT pass
// sorted, and after a cached one they are sorted for wait alone. Nothing
// of the sort stays on the tracer.
func (t *Tracer) AnalyzeWaits(wait func(launchEnd, kernelStart sim.Time)) Metrics {
	if t == nil {
		return Metrics{}
	}
	m, launches := t.analyzeOnce()
	if wait == nil {
		return m
	}
	if launches == nil {
		launches = t.launchesBySeq()
	}
	for launchEnd, kernelStart := range t.kernelWaits(launches) {
		wait(launchEnd, kernelStart)
	}
	return m
}

// analyzeOnce returns the cached analysis, computing it first when an
// event has completed since. A fresh analysis also returns the launches
// its KQT pass read, sorted for kernelWaits; a cached one returns nil.
func (t *Tracer) analyzeOnce() (Metrics, []interval) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.analyzed != nil && t.analyzedN == t.events {
		return *t.analyzed, nil
	}
	m, launches := t.analyze()
	t.analyzed, t.analyzedN = &m, t.events
	return m, launches
}

// interval is the part of a record the LQT and KQT passes read: 24 bytes
// to sort and scan instead of a 48-byte record.
type interval struct {
	start, end sim.Time
	seq        int
}

func byStart(a, b interval) int { return cmp.Compare(a.start, b.start) }

func bySeq(a, b interval) int { return cmp.Compare(a.seq, b.seq) }

// analyze computes the Metrics, and returns the launches sorted for
// kernelWaits.
func (t *Tracer) analyze() (Metrics, []interval) {
	var m Metrics
	var nBusy int
	for r := range t.eventRecords() {
		switch Kind(r.kind) {
		case KindLaunch:
			m.Launches++
			nBusy++
		case KindKernel:
			m.Kernels++
		case KindMemcpyH2D, KindMemcpyD2H, KindMemcpyD2D, KindAlloc, KindFree, KindSync:
			nBusy++
		}
	}
	if m.Launches > 0 {
		m.KLOs = make([]time.Duration, 0, m.Launches)
	}
	if m.Kernels > 0 {
		m.KETs = make([]time.Duration, 0, m.Kernels)
	}
	launches := make([]interval, 0, m.Launches)
	busy := make([]interval, 0, nBusy) // host-side API events for gap accounting
	for r := range t.eventRecords() {
		iv := interval{r.start, r.end, r.seq}
		d := r.end.Sub(r.start)
		switch Kind(r.kind) {
		case KindLaunch:
			m.KLO += d
			m.KLOs = append(m.KLOs, d)
			launches = append(launches, iv)
			busy = append(busy, iv)
		case KindKernel:
			m.KET += d
			m.KETs = append(m.KETs, d)
		case KindMemcpyH2D:
			m.CopyH2D += d
			busy = append(busy, iv)
		case KindMemcpyD2H:
			m.CopyD2H += d
			busy = append(busy, iv)
		case KindMemcpyD2D:
			m.CopyD2D += d
			busy = append(busy, iv)
		case KindAlloc:
			m.AllocTime += d
			busy = append(busy, iv)
		case KindFree:
			m.FreeTime += d
			busy = append(busy, iv)
		case KindSync:
			m.SyncTime += d
			busy = append(busy, iv)
		}
		if r.managed && (r.kind == uint8(KindMemcpyH2D) || r.kind == uint8(KindMemcpyD2H) || r.kind == uint8(KindMemcpyD2D)) {
			m.ManagedCopy += d
		}
	}

	// LQT: gaps between consecutive launches not covered by other API work.
	slices.SortFunc(launches, byStart)
	slices.SortFunc(busy, byStart)
	// reach[j] is the latest end among busy[:j+1]. Every event before the
	// first index whose reach passes a gap's start ends before the gap, so
	// the scan for that gap starts there.
	reach := make([]sim.Time, len(busy))
	for j, e := range busy {
		reach[j] = e.end
		if j > 0 {
			reach[j] = max(reach[j-1], e.end)
		}
	}
	for i := 1; i < len(launches); i++ {
		gapStart, gapEnd := launches[i-1].end, launches[i].start
		if gapEnd <= gapStart {
			continue
		}
		// reach is nondecreasing and times are integer nanoseconds, so the
		// first reach >= gapStart+1 is the first to pass gapStart.
		from, _ := slices.BinarySearch(reach, gapStart+1)
		covered := overlapWith(busy[from:], gapStart, gapEnd, launches[i].seq, launches[i-1].seq)
		gap := gapEnd.Sub(gapStart) - covered
		if gap > 0 {
			m.LQT += gap
		}
	}

	// KQT: launches are in start order here, as launchesBySeq sorts them
	// first.
	slices.SortStableFunc(launches, bySeq)
	for launchEnd, kernelStart := range t.kernelWaits(launches) {
		m.KQT += kernelStart.Sub(launchEnd)
	}
	return m, launches
}

// KernelWaits iterates the kernels in completion order and yields, for
// each that started after its launch returned, that launch's end and the
// kernel's start: the kernel's queuing time (KQT). A kernel matches the
// launch with its correlation id; among launches that share one, the last
// in start order matches. A kernel with no recorded launch yields nothing.
// It yields nothing on a nil tracer.
func (t *Tracer) KernelWaits() iter.Seq2[sim.Time, sim.Time] {
	return func(yield func(sim.Time, sim.Time) bool) {
		if t == nil {
			return
		}
		t.kernelWaits(t.launchesBySeq())(yield)
	}
}

// launchesBySeq collects the launches and sorts them for kernelWaits: by
// start, then stably by seq.
func (t *Tracer) launchesBySeq() []interval {
	n := 0
	for r := range t.eventRecords() {
		if Kind(r.kind) == KindLaunch {
			n++
		}
	}
	launches := make([]interval, 0, n)
	for r := range t.eventRecords() {
		if Kind(r.kind) == KindLaunch {
			launches = append(launches, interval{r.start, r.end, r.seq})
		}
	}
	slices.SortFunc(launches, byStart)
	slices.SortStableFunc(launches, bySeq)
	return launches
}

// kernelWaits is KernelWaits over launches sorted by start and then stably
// by seq, which keeps launches that share a seq in start order, so the last
// of them is the one a binary search finds.
func (t *Tracer) kernelWaits(launches []interval) iter.Seq2[sim.Time, sim.Time] {
	return func(yield func(sim.Time, sim.Time) bool) {
		for r := range t.eventRecords() {
			if Kind(r.kind) != KindKernel {
				continue
			}
			i, _ := slices.BinarySearchFunc(launches, interval{seq: r.seq + 1}, bySeq)
			if i > 0 && launches[i-1].seq == r.seq && r.start > launches[i-1].end {
				if !yield(launches[i-1].end, r.start) {
					return
				}
			}
		}
	}
}

// overlapWith sums the portions of [start, end] covered by busy intervals
// (sorted by start), skipping the two launches that bound the gap.
func overlapWith(busy []interval, start, end sim.Time, skipA, skipB int) time.Duration {
	var covered time.Duration
	cursor := start
	for _, e := range busy {
		if e.start >= end {
			break
		}
		if e.seq == skipA || e.seq == skipB || e.end <= cursor {
			continue
		}
		s := max(e.start, cursor)
		f := min(e.end, end)
		if f > s {
			covered += f.Sub(s)
			cursor = f
		}
	}
	return covered
}

// CDF returns sorted samples and, for each, the cumulative fraction — the
// exact form plotted in Fig 11. trimTop removes the N largest samples (the
// paper trims the top 5 launch durations for display).
func CDF(samples []time.Duration, trimTop int) (xs []time.Duration, ps []float64) {
	if len(samples) == 0 {
		return nil, nil
	}
	xs = append([]time.Duration(nil), samples...)
	slices.Sort(xs)
	if trimTop > 0 && trimTop < len(xs) {
		xs = xs[:len(xs)-trimTop]
	}
	ps = make([]float64, len(xs))
	for i := range xs {
		ps[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ps
}

// Mean returns the average of the samples (0 for none).
func Mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}
