// Package obs is the simulator's observability layer: spans on named
// tracks stamped with simulated time, an ordered list of end-of-run metric
// values, and deterministic exporters (Chrome trace-event JSON for
// Perfetto, and a compact per-layer text summary).
//
// An Observer is the run's one recorder: each span is a record of its log,
// a trace.Tracer, whose Nsight view (Tracer) the paper's metrics come from.
// Track.BeginEvent opens a span that Span.EndEvent closes as an Nsight
// event, so an activity both views show is one record. A Nsight-only
// recorder (NewNsight) keeps just the events. Every recording entry point
// is reached through a value handle (Track, Span) whose embedded
// *Observer is nil when nothing records, so the disabled path is a single
// nil check and allocates nothing — span state rides inside the
// substrate's existing pooled continuation frames (sim.FramePool).
//
// Spans are opened and closed at sim.Time boundaries, so an exported trace
// shows simulated time, not wall time: byte-identical run over run, which
// is what lets a golden trace test diff the export byte-for-byte. The log
// records no nesting: spans on one track may overlap freely, and Perfetto
// nests them by time containment.
package obs

import (
	"slices"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// Observer records the spans, events and metrics of one simulation run.
// Create one with New, attach it to an engine with Bind, and hand it to
// the substrate (cuda.Runtime.SetObserver or serve.Config.Observer) before
// the run starts. A nil *Observer is valid everywhere and records nothing.
type Observer struct {
	eng    *sim.Engine
	log    trace.Tracer
	nsight bool // a Nsight-only recorder: tracks untracked, no metrics
	tracks []string
	byName map[string]int32
	scopes []string
	spans  []span // the records on a track or async scope, in begin order
	reg    Registry
}

// span is what the exports show of a record beyond its interval, which
// the log holds.
type span struct {
	rec   int32 // the record's index in the log
	track int32 // 1 + the track's index, or -1 - the async scope's index
	name  string
	mode  string // protection mode, "" = unset
	bytes int64  // payload size, 0 = unset
	n     int64  // generic count (tokens, batch size), 0 = unset
	req   int64  // request id, -1 = unset
}

// New returns an empty observer. Bind it to an engine before any span is
// opened; until then it only serves registration (Track, Metrics).
func New() *Observer {
	return &Observer{byName: make(map[string]int32)}
}

// NewNsight returns a recorder bound to eng that keeps only Nsight events:
// the spans opened with BeginEvent, on no track, and the events recorded
// through Tracer. Its tracks open no obs-only span, it opens no async span
// and it keeps no metrics, so its exports are empty.
func NewNsight(eng *sim.Engine) *Observer {
	return &Observer{eng: eng, nsight: true}
}

// Bind attaches the engine whose clock stamps span boundaries. The layer
// that owns the engine calls this during wiring (System.Observe, serve's
// scheduler), so callers building an Observer for a facade run never need
// to see the engine.
func (o *Observer) Bind(eng *sim.Engine) {
	if o == nil {
		return
	}
	o.eng = eng
}

// Tracer returns the Nsight view of the recorder's log: its events in
// completion order. Nil-safe: a nil observer has a nil view, which records
// nothing.
func (o *Observer) Tracer() *trace.Tracer {
	if o == nil {
		return nil
	}
	return &o.log
}

// Metrics returns the observer's end-of-run metrics. Nil-safe: a nil
// observer or a Nsight-only recorder returns a nil registry, which ignores
// every Set.
func (o *Observer) Metrics() *Registry {
	if o == nil || o.nsight {
		return nil
	}
	return &o.reg
}

// Track is a named timeline handle. The zero Track (from a nil Observer)
// is valid and records nothing, so layers hold Track values unconditionally
// and pay one nil check per operation when observability is off.
type Track struct {
	o  *Observer
	id int32 // see span.track; 0 on a Nsight-only recorder
}

// Track returns the timeline with the given name, creating it on first
// use. Creation order is the export order, so wiring code registers tracks
// deterministically. Nil-safe.
func (o *Observer) Track(name string) Track {
	if o == nil || o.nsight {
		return Track{o: o}
	}
	if id, ok := o.byName[name]; ok {
		return Track{o: o, id: id}
	}
	o.tracks = append(o.tracks, name)
	id := int32(len(o.tracks))
	o.byName[name] = id
	return Track{o: o, id: id}
}

// Span is a handle to one open interval. The zero Span is valid and
// records nothing.
type Span struct {
	o   *Observer
	rec int32 // the record's index in the log
	sp  int32 // 1 + the index of its span; 0 on no track
}

// Begin opens an obs-only span on the track at the current simulated
// time. Close it with End; attach attributes with Bytes/Count/Request/Mode.
// A Nsight-only recorder's tracks return the zero Span.
func (t Track) Begin(name string) Span {
	if t.id == 0 {
		return Span{}
	}
	o := t.o
	rec := o.log.Begin(o.eng.Now())
	if len(o.spans) == cap(o.spans) { // double: append's 1.25x growth re-copies spans
		o.spans = slices.Grow(o.spans, len(o.spans))
	}
	o.spans = append(o.spans, span{rec: rec, track: t.id, name: name, req: -1})
	return Span{o: o, rec: rec, sp: int32(len(o.spans))}
}

// BeginEvent opens a span that EndEvent closes as an Nsight event, so the
// one record is both the span on the track and the event. Unlike Begin it
// records on a Nsight-only recorder too, as an event on no track.
func (t Track) BeginEvent(name string) Span {
	if t.id != 0 || t.o == nil {
		return t.Begin(name)
	}
	return Span{o: t.o, rec: t.o.log.Begin(t.o.eng.Now())}
}

// Bytes attaches the payload size.
func (sp Span) Bytes(n int64) Span {
	if sp.sp != 0 {
		sp.o.spans[sp.sp-1].bytes = n
	}
	return sp
}

// Count attaches a generic count (tokens, batch size, pages).
func (sp Span) Count(n int64) Span {
	if sp.sp != 0 {
		sp.o.spans[sp.sp-1].n = n
	}
	return sp
}

// Request attaches a serving request id.
func (sp Span) Request(id int64) Span {
	if sp.sp != 0 {
		sp.o.spans[sp.sp-1].req = id
	}
	return sp
}

// Mode attaches the protection mode name.
func (sp Span) Mode(name string) Span {
	if sp.sp != 0 {
		sp.o.spans[sp.sp-1].mode = name
	}
	return sp
}

// End closes the span at the current simulated time. Ending the zero Span
// is a no-op, so continuation chains end their frame's span unconditionally.
func (sp Span) End() {
	if sp.o != nil {
		sp.o.log.End(sp.rec, sp.o.eng.Now())
	}
}

// EndEvent closes a span opened with BeginEvent at the current simulated
// time as the Nsight event e, whose Start and End are the span's own (see
// trace.Tracer.EndEvent). Ending the zero Span is a no-op.
func (sp Span) EndEvent(e trace.Event) {
	if sp.o != nil {
		sp.o.log.EndEvent(sp.rec, sp.o.eng.Now(), e)
	}
}

// BeginAsync opens an interval in an overlapping scope — request lifecycle
// phases whose instances interleave (many requests queued at once). The id
// groups intervals of one logical flow; close the interval with End.
// Nil-safe, and inert on a Nsight-only recorder.
func (o *Observer) BeginAsync(scope string, id int64, name string) Span {
	if o == nil || o.nsight {
		return Span{}
	}
	sc := slices.Index(o.scopes, scope)
	if sc < 0 {
		sc = len(o.scopes)
		o.scopes = append(o.scopes, scope)
	}
	return Track{o: o, id: -int32(sc) - 1}.Begin(name).Request(id)
}

// Spans reports how many spans, on tracks and async scopes, have been
// recorded (open or closed).
func (o *Observer) Spans() int {
	if o == nil {
		return 0
	}
	return len(o.spans)
}

// Open counts the spans and events begun but not yet ended. A drained run
// ends everything it begins, so Open is 0 after every complete run.
func (o *Observer) Open() int { return o.Tracer().Open() }
